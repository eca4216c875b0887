// The weber benchmark binary.
//
//   weber_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--workdir DIR]
//
// Generates the workload's input from the seed, runs it against weber's
// public API for about S seconds, checks the outputs and prints the
// metrics: one `name value unit` line each, then a JSON object as the last
// stdout line. Untraced runs (--trace 0) report the end-to-end metrics;
// traced runs (--trace 1) wrap each call into a layer in a benchmark-side
// span, attach an obs::MetricsRegistry and report the per-layer metrics.
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error. See README.md for the workloads and metric definitions.

#include <charconv>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "util/intersect.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every untraced run reports all of these (README.md defines each one per
// workload).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"f1", "share"},
    {"pc", "share"},  {"ok_share", "share"},
};

// Every traced run reports all of these; a layer a workload bypasses
// reads 0. The first four are the end-to-end timings, which a shared
// host does not hold steady enough to gate on (README.md, Steadiness).
constexpr MetricSpec kPerLayer[] = {
    {"wall_s", "s"},
    {"entities_per_s", "1/s"},
    {"ingest_p50_ms", "ms"},
    {"ingest_p99_ms", "ms"},
    {"blocking.build_s", "s"},
    {"blocking.purge_s", "s"},
    {"blocking.blocks", "count"},
    {"eval.blocks_s", "s"},
    {"metablocking.s", "s"},
    {"metablocking.candidates", "count"},
    {"metablocking.kept_share", "share"},
    {"matching.prepare_s", "s"},
    {"matching.arena_bytes", "B"},
    {"progressive.run_s", "s"},
    {"progressive.pairs_per_s", "1/s"},
    {"matching.match_share", "share"},
    {"matching.cluster_s", "s"},
    {"matching.kernel_level", "level"},
    {"core.executor.tasks", "count"},
    {"core.executor.steals", "count"},
    {"core.executor.balance", "ratio"},
    {"incremental.ingest_s", "s"},
    {"incremental.batch_entities", "count"},
    {"incremental.candidates_per_entity", "count"},
    {"incremental.index_updates_per_entity", "count"},
    {"serve.request_s", "s"},
    {"serve.requests_per_batch", "count"},
    {"serve.batch_occupancy", "share"},
    {"serve.shard_imbalance", "ratio"},
    {"serve.client_call_s", "s"},
    {"serve.transport_s", "s"},
    {"serve.resolve_p50_ms", "ms"},
    {"serve.resolve_p99_ms", "ms"},
    {"storage.wal_bytes_per_entity", "B"},
    {"storage.recovered_osn", "count"},
    {"storage.recover_s", "s"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"obs.tracing_overhead_share", "share"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_share", "share"},
    {"env.nproc", "count"},
};

struct WorkloadSpec {
  const char* name;
  void (*run)(const Args&, RunResult&);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"batch-metablocking", RunBatchMetablocking},
    {"serve-ingest", RunServeIngest},
    {"serve-mixed-durable", RunServeMixedDurable},
    {"stream-replay", RunStreamReplay},
};

int Usage(const std::string& message) {
  std::cerr << "weber_perfbench: " << message
            << "\nusage: weber_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n";
  return 2;
}

std::string Number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) workload = &spec;
  }
  if (workload == nullptr) return Usage("unknown workload " + args.workload);

  // The environment every result is read against.
  std::printf("env nproc=%zu kernel=%s compiler=%s build_type=%s\n", Nproc(),
              weber::util::KernelName(weber::util::ActiveIntersectKernel()),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);

  RunResult result;
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) result.Set(spec.name, 0, spec.unit);
    result.Set("env.nproc", static_cast<double>(Nproc()), "count");
  }
  workload->run(args, result);

  // Report exactly the metric set of the run's mode.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> shown;
  std::span<const MetricSpec> specs =
      args.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics().find(spec.name);
    if (it == result.metrics().end()) {
      std::cerr << "weber_perfbench: workload did not measure " << spec.name
                << "\n";
      return 1;
    }
    shown.emplace_back(spec.name, it->second);
  }
  for (const auto& [name, metric] : shown) {
    std::printf("%-40s %16s %s\n", name.c_str(), Number(metric.first).c_str(),
                metric.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + shown[i].first + "\": {\"value\": " +
            Number(shown[i].second.first) + ", \"unit\": \"" +
            shown[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
