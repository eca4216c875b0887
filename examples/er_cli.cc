// Command-line entity resolution over an N-Triples file.
//
// Usage:
//   er_cli INPUT.nt [--threshold T] [--blocker token|qgrams|sn|pis]
//          [--meta WEIGHT PRUNING] [--truth TRUTH_FILE] [--budget N]
//          [--threads N] [--stream[=BATCH]] [--out LINKS_FILE]
//          [--metrics-json METRICS_FILE] [--trace-json TRACE_FILE]
//          [--telemetry-jsonl FILE[,INTERVAL_MS]] [--verbose]
//
// Reads entity descriptions from INPUT.nt, resolves them, and writes the
// discovered links as owl:sameAs N-Triples to stdout (or --out). With
// --truth (lines of "<uri1> <uri2>") it also prints quality metrics.
// --metrics-json writes the full observability snapshot (per-phase spans,
// counters, histograms) as JSON; --verbose dumps it as text to stderr.
// --trace-json arms the flight recorder and writes a Chrome trace-event
// file (open it in ui.perfetto.dev): phase spans on the main track plus
// per-worker task-run and steal events from the executor.
// --telemetry-jsonl samples the metrics registry and process stats (RSS,
// CPU, page faults) every INTERVAL_MS ms (default 100) and writes one
// JSON object per sample — the time-series twin of --metrics-json.
// All three observability flags compose with each other and --stream.
// --threads N pins the parallelism of the run (results are bit-identical
// for any N; default: the shared executor's worker count).
// --stream replays the input through the incremental resolver in ingest
// batches of BATCH entities (default 64) and reports ingest rate and
// batch-latency quantiles; the final links equal the batch run's.
// Run without arguments for a self-contained demo on a generated corpus.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "blocking/block_purging.h"
#include "core/executor.h"
#include "blocking/prefix_infix_suffix.h"
#include "blocking/qgrams_blocking.h"
#include "blocking/sorted_neighborhood.h"
#include "blocking/token_blocking.h"
#include "core/pipeline.h"
#include "datagen/corpus_generator.h"
#include "eval/match_metrics.h"
#include "matching/matcher.h"
#include "metablocking/weight_schemes.h"
#include "model/io.h"
#include "serve/sharded_resolver.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "storage/file_io.h"
#include "storage/options.h"
#include "util/check.h"
#include "util/intersect.h"

namespace {

using namespace weber;

/// Snapshot of the active run's configuration, for check-failure
/// diagnostics. The handler below is a capture-less function pointer, so
/// the state lives at namespace scope; it is written once before
/// RunPipeline and only read again if a contract trips.
std::string g_run_summary;

/// Appended to every WEBER_CHECK failure message: which Fig. 1 phase was
/// executing and what configuration drove the run, so a crash report from
/// the field pins down the failing stage without a debugger.
std::string CheckFailureContext() {
  const char* phase = core::ActivePipelinePhase();
  std::string context = "phase=";
  context += phase != nullptr ? phase : "none";
  if (!g_run_summary.empty()) {
    context += ' ';
    context += g_run_summary;
  }
  return context;
}

std::unique_ptr<blocking::Blocker> MakeBlocker(const std::string& name) {
  if (name == "token") return std::make_unique<blocking::TokenBlocking>();
  if (name == "qgrams") return std::make_unique<blocking::QGramsBlocking>(3);
  if (name == "sn") {
    return std::make_unique<blocking::SortedNeighborhood>(8);
  }
  if (name == "pis") {
    return std::make_unique<blocking::PrefixInfixSuffixBlocking>();
  }
  return nullptr;
}

std::optional<metablocking::PruningScheme> ParsePruning(
    const std::string& name) {
  for (metablocking::PruningScheme scheme :
       metablocking::kAllPruningSchemes) {
    if (metablocking::ToString(scheme) == name) return scheme;
  }
  return std::nullopt;
}

constexpr const char kUsage[] =
    "usage: er_cli [INPUT.nt] [--threshold T] [--blocker "
    "token|qgrams|sn|pis] [--meta WEIGHT PRUNING] [--truth FILE] "
    "[--budget N] [--threads N] [--kernel auto|scalar|sse4|avx2] "
    "[--stream[=BATCH]] [--shards N] [--data-dir PATH] [--snapshot-every N] "
    "[--fsync always|batch|off] [--out FILE] "
    "[--metrics-json FILE] [--trace-json FILE] "
    "[--telemetry-jsonl FILE[,INTERVAL_MS]] [--verbose]";

int Fail(const std::string& message) {
  std::fprintf(stderr, "er_cli: %s\n", message.c_str());
  return 1;
}

/// Command-line mistakes get the one-line usage alongside the error.
int UsageFail(const std::string& message) {
  std::fprintf(stderr, "er_cli: %s\n%s\n", message.c_str(), kUsage);
  return 2;
}

bool ParseUnsigned(const std::string& value, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
    return false;
  }
  *out = static_cast<uint64_t>(parsed);
  return true;
}

bool ParseFsync(const std::string& value, storage::FsyncPolicy* policy) {
  if (value == "always") {
    *policy = storage::FsyncPolicy::kAlways;
  } else if (value == "batch") {
    *policy = storage::FsyncPolicy::kBatch;
  } else if (value == "off") {
    *policy = storage::FsyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

bool ParseThreads(const std::string& value, size_t* threads) {
  uint64_t parsed = 0;
  if (!ParseUnsigned(value, &parsed)) return false;
  *threads = static_cast<size_t>(parsed);
  return true;
}

/// Applies a --kernel choice to the intersection dispatch table. "auto"
/// restores the CPUID pick; a named level must be supported by this CPU
/// (and not overridden by WEBER_FORCE_SCALAR_KERNELS) or the flag is a
/// usage error — silently running a different kernel than requested would
/// defeat the flag's debugging purpose.
bool ApplyKernelChoice(const std::string& value, std::string* error) {
  if (value == "auto") {
    util::ResetIntersectKernel();
    return true;
  }
  std::optional<util::IntersectKernel> kernel;
  if (value == "scalar") kernel = util::IntersectKernel::kScalar;
  if (value == "sse4") kernel = util::IntersectKernel::kSse4;
  if (value == "avx2") kernel = util::IntersectKernel::kAvx2;
  if (!kernel.has_value()) {
    *error = "bad --kernel " + value + " (want auto|scalar|sse4|avx2)";
    return false;
  }
  if (!util::SetIntersectKernel(*kernel)) {
    *error = "--kernel " + value +
             (util::KernelForcedScalar()
                  ? " unavailable: dispatch is pinned scalar by "
                    "WEBER_FORCE_SCALAR_KERNELS"
                  : " unsupported by this CPU (best: " +
                        std::string(util::KernelName(util::CpuBestKernel())) +
                        ")");
    return false;
  }
  return true;
}

bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  errno = 0;
  double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
    return false;
  }
  *out = parsed;
  return true;
}

/// Splits a "PATH[,INTERVAL_MS]" telemetry spec. The interval, when
/// present, must be a positive integer number of milliseconds (capped at
/// one hour); anything else is a usage error.
bool ParseTelemetrySpec(const std::string& value, std::string* path,
                        int* interval_ms) {
  std::string spec = value;
  size_t comma = spec.rfind(',');
  if (comma != std::string::npos) {
    uint64_t parsed = 0;
    if (!ParseUnsigned(spec.substr(comma + 1), &parsed) || parsed == 0 ||
        parsed > 3600000) {
      return false;
    }
    *interval_ms = static_cast<int>(parsed);
    spec.resize(comma);
  }
  if (spec.empty()) return false;
  *path = spec;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string truth_path;
  std::string out_path;
  std::string metrics_path;
  std::string trace_path;
  std::string telemetry_path;
  int telemetry_interval_ms = 100;
  std::string blocker_name = "token";
  bool verbose = false;
  double threshold = 0.5;
  uint64_t budget = 0;
  size_t threads = 0;
  bool kernel_flag = false;
  bool stream = false;
  uint64_t stream_batch = 64;
  uint64_t shards = 1;
  bool shards_flag = false;
  std::string data_dir;
  uint64_t snapshot_every = 0;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kBatch;
  bool fsync_flag = false;
  bool snapshot_every_flag = false;
  std::optional<std::pair<metablocking::WeightScheme,
                          metablocking::PruningScheme>>
      meta;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    auto missing = [&] { return UsageFail(arg + " needs a value"); };
    if (arg == "--threshold") {
      auto v = next();
      if (!v) return missing();
      if (!ParseDouble(*v, &threshold)) {
        return UsageFail("bad --threshold " + *v);
      }
    } else if (arg == "--blocker") {
      auto v = next();
      if (!v) return missing();
      blocker_name = *v;
    } else if (arg == "--truth") {
      auto v = next();
      if (!v) return missing();
      truth_path = *v;
    } else if (arg == "--out") {
      auto v = next();
      if (!v) return missing();
      out_path = *v;
    } else if (arg == "--budget") {
      auto v = next();
      if (!v) return missing();
      if (!ParseUnsigned(*v, &budget)) return UsageFail("bad --budget " + *v);
    } else if (arg == "--threads") {
      auto v = next();
      if (!v) return missing();
      if (!ParseThreads(*v, &threads)) return UsageFail("bad --threads " + *v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--threads="));
      if (!ParseThreads(v, &threads)) return UsageFail("bad --threads " + v);
    } else if (arg == "--kernel") {
      auto v = next();
      if (!v) return missing();
      std::string error;
      if (!ApplyKernelChoice(*v, &error)) return UsageFail(error);
      kernel_flag = true;
    } else if (arg.rfind("--kernel=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--kernel="));
      std::string error;
      if (!ApplyKernelChoice(v, &error)) return UsageFail(error);
      kernel_flag = true;
    } else if (arg == "--stream") {
      stream = true;
    } else if (arg.rfind("--stream=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--stream="));
      stream = true;
      if (!ParseUnsigned(v, &stream_batch) || stream_batch == 0) {
        return UsageFail("bad --stream batch size " + v);
      }
    } else if (arg == "--shards") {
      auto v = next();
      if (!v) return missing();
      if (!ParseUnsigned(*v, &shards) || shards == 0 ||
          shards > serve::ShardedResolver::kMaxShards) {
        return UsageFail("bad --shards " + *v + " (want 1..64)");
      }
      shards_flag = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--shards="));
      if (!ParseUnsigned(v, &shards) || shards == 0 ||
          shards > serve::ShardedResolver::kMaxShards) {
        return UsageFail("bad --shards " + v + " (want 1..64)");
      }
      shards_flag = true;
    } else if (arg == "--data-dir") {
      auto v = next();
      if (!v) return missing();
      data_dir = *v;
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(std::strlen("--data-dir="));
      if (data_dir.empty()) return UsageFail("bad --data-dir value");
    } else if (arg == "--snapshot-every") {
      auto v = next();
      if (!v) return missing();
      if (!ParseUnsigned(*v, &snapshot_every)) {
        return UsageFail("bad --snapshot-every " + *v);
      }
      snapshot_every_flag = true;
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--snapshot-every="));
      if (!ParseUnsigned(v, &snapshot_every)) {
        return UsageFail("bad --snapshot-every " + v);
      }
      snapshot_every_flag = true;
    } else if (arg == "--fsync") {
      auto v = next();
      if (!v) return missing();
      if (!ParseFsync(*v, &fsync)) return UsageFail("bad --fsync " + *v);
      fsync_flag = true;
    } else if (arg.rfind("--fsync=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--fsync="));
      if (!ParseFsync(v, &fsync)) return UsageFail("bad --fsync " + v);
      fsync_flag = true;
    } else if (arg == "--metrics-json") {
      auto v = next();
      if (!v) return missing();
      metrics_path = *v;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_path = arg.substr(std::strlen("--metrics-json="));
    } else if (arg == "--trace-json") {
      auto v = next();
      if (!v) return missing();
      trace_path = *v;
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace-json="));
      if (trace_path.empty()) return UsageFail("bad --trace-json value");
    } else if (arg == "--telemetry-jsonl") {
      auto v = next();
      if (!v) return missing();
      if (!ParseTelemetrySpec(*v, &telemetry_path, &telemetry_interval_ms)) {
        return UsageFail("bad --telemetry-jsonl " + *v +
                         " (want PATH[,INTERVAL_MS])");
      }
    } else if (arg.rfind("--telemetry-jsonl=", 0) == 0) {
      std::string v = arg.substr(std::strlen("--telemetry-jsonl="));
      if (!ParseTelemetrySpec(v, &telemetry_path, &telemetry_interval_ms)) {
        return UsageFail("bad --telemetry-jsonl " + v +
                         " (want PATH[,INTERVAL_MS])");
      }
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--meta") {
      auto w = next();
      if (!w) return missing();
      auto p = next();
      if (!p) return missing();
      auto weight = metablocking::ParseWeightScheme(*w);
      auto pruning = ParsePruning(*p);
      if (!weight || !pruning) {
        return UsageFail("unknown meta-blocking scheme " + *w + " " + *p);
      }
      meta = {{*weight, *pruning}};
    } else if (!arg.empty() && arg[0] != '-') {
      if (!input_path.empty()) {
        return UsageFail("unexpected extra argument " + arg);
      }
      input_path = arg;
    } else {
      return UsageFail("unknown flag " + arg);
    }
  }
  if (stream && meta.has_value()) {
    return UsageFail("--meta is not supported with --stream");
  }
  if (shards_flag && !stream) {
    return UsageFail("--shards requires --stream");
  }
  if (!data_dir.empty()) {
    if (!stream) return UsageFail("--data-dir requires --stream");
    if (!storage::DirectoryExists(data_dir)) {
      return UsageFail("--data-dir " + data_dir +
                       " is not an existing directory");
    }
  } else if (snapshot_every_flag || fsync_flag) {
    return UsageFail(
        (snapshot_every_flag ? std::string("--snapshot-every")
                             : std::string("--fsync")) +
        " requires --data-dir");
  }

  // Load (or generate for the demo) the collection and optional truth.
  model::EntityCollection collection;
  model::GroundTruth truth;
  if (input_path.empty()) {
    std::fprintf(stderr,
                 "er_cli: no input given; running demo on a generated "
                 "corpus of 500 entities\n");
    datagen::CorpusConfig config;
    config.num_entities = 500;
    config.seed = 1;
    datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
    collection = std::move(corpus.collection);
    truth = std::move(corpus.truth);
    truth_path = "<generated>";
  } else {
    std::ifstream in(input_path);
    if (!in) return UsageFail("cannot open " + input_path);
    size_t skipped = 0;
    collection = model::ReadNTriples(in, &skipped);
    if (skipped > 0) {
      std::fprintf(stderr, "er_cli: skipped %zu malformed lines\n", skipped);
    }
    if (!truth_path.empty()) {
      std::ifstream truth_in(truth_path);
      if (!truth_in) return UsageFail("cannot open " + truth_path);
      truth = model::ReadGroundTruth(truth_in, collection);
    }
  }
  if (collection.empty()) return Fail("no descriptions parsed");

  std::unique_ptr<blocking::Blocker> blocker = MakeBlocker(blocker_name);
  if (blocker == nullptr) return UsageFail("unknown blocker " + blocker_name);

  matching::TokenJaccardMatcher matcher;
  obs::MetricsRegistry registry;
  core::PipelineConfig config;
  config.blocker = blocker.get();
  config.auto_purge = true;
  config.meta_blocking = meta;
  config.matcher = &matcher;
  config.match_threshold = threshold;
  config.budget = budget;
  config.num_threads = threads;
  config.metrics = &registry;
  if (stream) {
    core::IncrementalMode mode;
    mode.batch_size = static_cast<size_t>(stream_batch);
    mode.shards = static_cast<size_t>(shards);
    mode.data_dir = data_dir;
    mode.snapshot_every = snapshot_every;
    mode.fsync = fsync;
    config.incremental = mode;
  }
  {
    std::ostringstream summary;
    summary << "blocker=" << blocker_name << " threshold=" << threshold;
    if (meta.has_value()) {
      summary << " meta=" << metablocking::ToString(meta->first) << '/'
              << metablocking::ToString(meta->second);
    }
    if (budget > 0) summary << " budget=" << budget;
    if (threads > 0) summary << " threads=" << threads;
    if (kernel_flag) {
      summary << " kernel="
              << util::KernelName(util::ActiveIntersectKernel());
    }
    if (stream) summary << " stream=" << stream_batch;
    if (shards > 1) summary << " shards=" << shards;
    if (!data_dir.empty()) {
      summary << " data_dir=" << data_dir
              << " fsync=" << storage::FsyncPolicyName(fsync);
      if (snapshot_every > 0) summary << " snapshot_every=" << snapshot_every;
    }
    summary << " entities=" << collection.size();
    g_run_summary = summary.str();
  }
  // Flight recorder: arm the registry's event log so executor workers
  // report task-run/steal events alongside the main thread's phase spans.
  if (!trace_path.empty()) {
    registry.events().Enable();
    registry.events().NameThread("main");
  }
  // Telemetry sampler: runs for the whole resolve, republishing executor
  // stats each tick so queue-depth/utilization gauges form a time series.
  std::unique_ptr<obs::TelemetrySampler> sampler;
  if (!telemetry_path.empty()) {
    obs::TelemetrySampler::Options sampler_options;
    sampler_options.interval_ms = telemetry_interval_ms;
    sampler_options.registry = &registry;
    sampler_options.tick_hook = [] {
      core::Executor::Shared().PublishMetrics();
    };
    sampler = std::make_unique<obs::TelemetrySampler>(sampler_options);
    sampler->Start();
  }
  util::SetCheckContextHandler(&CheckFailureContext);
  core::PipelineResult result = core::RunPipeline(collection, truth, config);
  if (sampler != nullptr) sampler->Stop();

  std::fprintf(stderr,
               "er_cli: %zu descriptions, %llu candidates, %llu "
               "comparisons, %zu links, %zu clusters\n",
               collection.size(),
               static_cast<unsigned long long>(result.candidates),
               static_cast<unsigned long long>(result.comparisons),
               result.matches.size(), result.clusters.size());
  if (stream) {
    obs::RegistrySnapshot snapshot = registry.TakeSnapshot();
    const obs::HistogramSnapshot& ingest =
        snapshot.histograms["weber.incremental.ingest_seconds"];
    double rate = result.matching_seconds > 0.0
                      ? static_cast<double>(collection.size()) /
                            result.matching_seconds
                      : 0.0;
    std::fprintf(stderr,
                 "er_cli: stream: %llu batches of <=%llu, shards=%llu, "
                 "%.0f entities/s, batch latency p50=%.2gms p99=%.2gms\n",
                 static_cast<unsigned long long>(ingest.count),
                 static_cast<unsigned long long>(stream_batch),
                 static_cast<unsigned long long>(shards), rate,
                 ingest.Quantile(0.5) * 1e3, ingest.Quantile(0.99) * 1e3);
  }
  std::fprintf(stderr,
               "er_cli: phase timings: blocking=%.3fs scheduling=%.3fs "
               "matching=%.3fs\n",
               result.blocking_seconds, result.scheduling_seconds,
               result.matching_seconds);
  if (truth.NumMatches() > 0) {
    eval::MatchQuality quality =
        eval::EvaluateMatchPairs(result.matches, truth);
    std::fprintf(stderr,
                 "er_cli: precision=%.3f recall=%.3f F1=%.3f (truth: %s)\n",
                 quality.Precision(), quality.Recall(), quality.F1(),
                 truth_path.c_str());
  }

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) return Fail("cannot write " + out_path);
    out = &out_file;
  }
  // A durable run recovered onto pre-existing state reports matches in
  // store ids, which extend past the input collection.
  const model::EntityCollection& link_names =
      result.store_collection.has_value() ? *result.store_collection
                                          : collection;
  for (const model::IdPair& pair : result.matches) {
    *out << '<' << link_names[pair.low].uri()
         << "> <http://www.w3.org/2002/07/owl#sameAs> <"
         << link_names[pair.high].uri() << "> .\n";
  }

  if (verbose) {
    std::ostringstream text;
    obs::TextExporter().Export(registry, text);
    std::fputs(text.str().c_str(), stderr);
  }
  if (!metrics_path.empty()) {
    std::ofstream metrics_out(metrics_path);
    if (!metrics_out) return Fail("cannot write " + metrics_path);
    obs::JsonExporter().Export(registry, metrics_out);
    metrics_out << '\n';
    std::fprintf(stderr, "er_cli: wrote metrics to %s\n",
                 metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) return Fail("cannot write " + trace_path);
    obs::RegistrySnapshot snapshot = registry.TakeSnapshot();
    obs::TraceEventExporter().Export(snapshot, trace_out);
    trace_out << '\n';
    std::fprintf(stderr,
                 "er_cli: wrote trace to %s (%zu events, %zu tracks; open "
                 "in ui.perfetto.dev)\n",
                 trace_path.c_str(), snapshot.events.size(),
                 snapshot.thread_names.size());
  }
  if (sampler != nullptr) {
    std::ofstream telemetry_out(telemetry_path);
    if (!telemetry_out) return Fail("cannot write " + telemetry_path);
    sampler->ExportJsonl(telemetry_out);
    std::fprintf(stderr,
                 "er_cli: wrote telemetry to %s (%llu samples at %dms)\n",
                 telemetry_path.c_str(),
                 static_cast<unsigned long long>(sampler->total_samples()),
                 telemetry_interval_ms);
  }
  return 0;
}
