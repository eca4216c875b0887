#!/usr/bin/env python3
"""Run the machine-readable benches and merge their reports.

Each bench built with WEBER_BENCH_MAIN accepts --json=PATH and writes a
`weber-bench-report/1` document (see bench/bench_report.h). This driver
runs a configurable set of those benches and merges the per-bench files
into one BENCH_report.json:

    {"schema": "weber-bench-report-merged/1",
     "quick": true,
     "benches": {"bench_pipeline": {...per-bench report...}, ...},
     "failed": ["bench_that_crashed", ...]}

Usage:
    tools/bench/run_benchmarks.py --build-dir build --quick \
        --out BENCH_report.json

--quick trims each bench to a CI-sized subset (small row filters, short
min_time); without it every registered row runs at its default settings.
Exit status is non-zero when any bench fails or writes no samples.
"""

import argparse
import json
import os
import subprocess
import sys

# Per-bench row filters for --quick. bench_pipeline rows are Iterations(1)
# already, so it runs unfiltered; the others are trimmed to their smallest
# configurations.
BENCHES = {
    "bench_pipeline": {
        "quick_args": [],
        "full_args": [],
    },
    "bench_matching": {
        "quick_args": ["--benchmark_filter=/1$", "--benchmark_min_time=0.1"],
        "full_args": [],
    },
    "bench_incremental": {
        "quick_args": ["--benchmark_filter=/10000$",
                       "--benchmark_min_time=0.1"],
        "full_args": [],
    },
    "bench_parallel_scaling": {
        "quick_args": ["--benchmark_filter=/(1|4)/",
                       "--benchmark_min_time=0.1"],
        "full_args": [],
    },
    "bench_storage": {
        # Keep the 1k/10k rows plus the 100k mapped-open row — the
        # zero-copy claim needs the large file to show flat open time —
        # and the 10k-history sharded recovery pair.
        "quick_args": [
            "--benchmark_filter=(/1000$|/10000$|OpenMapped/100000|/4096/|"
            "history:10000/)",
            "--benchmark_min_time=0.1"],
        "full_args": [],
    },
    "bench_blocking_pc_rr": {
        # E2's quality rows are Iterations(1); quick keeps the 0% and 100%
        # divergence ends plus the three EvaluateBlocks rows.
        "quick_args": ["--benchmark_filter=(/0/|/100/|BM_EvaluateBlocks/)",
                       "--benchmark_min_time=0.1"],
        "full_args": [],
    },
    "bench_serve": {
        # Quick keeps the 20k-corpus rows at every shard count; full adds
        # the million-entity rows of the scaling claim.
        "quick_args": ["--benchmark_filter=/20000/"],
        "full_args": [],
    },
}


def run_bench(binary, bench, args, out_path):
    """Runs one bench; returns its parsed report or None on failure."""
    cmd = [binary, f"--json={out_path}"] + args
    print(f"[run_benchmarks] {' '.join(cmd)}", flush=True)
    try:
        subprocess.run(cmd, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"[run_benchmarks] {bench} failed: {err}", file=sys.stderr)
        return None
    try:
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"[run_benchmarks] {bench} wrote unreadable JSON: {err}",
              file=sys.stderr)
        return None
    if report.get("schema") != "weber-bench-report/1":
        print(f"[run_benchmarks] {bench}: unexpected schema "
              f"{report.get('schema')!r}", file=sys.stderr)
        return None
    if not report.get("samples"):
        print(f"[run_benchmarks] {bench}: no samples", file=sys.stderr)
        return None
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding bench/ binaries")
    parser.add_argument("--out", default="BENCH_report.json",
                        help="merged report path")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized subset: filtered rows, short min_time")
    parser.add_argument("--benches", default=",".join(BENCHES),
                        help="comma-separated subset of: "
                             + ", ".join(BENCHES))
    opts = parser.parse_args()

    selected = [b for b in opts.benches.split(",") if b]
    unknown = [b for b in selected if b not in BENCHES]
    if unknown:
        parser.error(f"unknown benches: {', '.join(unknown)} "
                     f"(known: {', '.join(BENCHES)})")

    merged = {
        "schema": "weber-bench-report-merged/1",
        "quick": opts.quick,
        "benches": {},
        "failed": [],
    }
    for bench in selected:
        binary = os.path.join(opts.build_dir, "bench", bench)
        if not os.path.exists(binary):
            print(f"[run_benchmarks] missing binary {binary}",
                  file=sys.stderr)
            merged["failed"].append(bench)
            continue
        args = BENCHES[bench]["quick_args" if opts.quick else "full_args"]
        report = run_bench(binary, bench, args, opts.out + f".{bench}.tmp")
        if report is None:
            merged["failed"].append(bench)
        else:
            merged["benches"][bench] = report
        tmp = opts.out + f".{bench}.tmp"
        if os.path.exists(tmp):
            os.unlink(tmp)

    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    total_rows = sum(len(r["samples"]) for r in merged["benches"].values())
    print(f"[run_benchmarks] wrote {opts.out}: "
          f"{len(merged['benches'])} benches, {total_rows} rows, "
          f"{len(merged['failed'])} failed")
    return 1 if merged["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
