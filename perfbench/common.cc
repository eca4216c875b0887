#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "eval/match_metrics.h"
#include "obs/export.h"

namespace perfbench {

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

weber::datagen::Corpus BuildCorpus(uint64_t seed, size_t num_entities) {
  weber::datagen::CorpusConfig config;
  config.num_entities = num_entities;
  config.duplicate_fraction = 0.5;
  config.max_extra_descriptions = 2;
  config.somehow_similar_fraction = 0.2;
  config.seed = seed;
  return weber::datagen::CorpusGenerator(config).GenerateDirty();
}

weber::datagen::Corpus WarmupCorpus(uint64_t seed) {
  return BuildCorpus(~seed, 1000);
}

std::vector<model::EntityDescription> Descriptions(
    const model::EntityCollection& collection) {
  std::vector<model::EntityDescription> out;
  out.reserve(collection.size());
  for (model::EntityId id = 0; id < collection.size(); ++id) {
    out.push_back(collection.at(id));
  }
  return out;
}

model::GroundTruth RemapTruth(const model::GroundTruth& truth,
                              const std::vector<model::EntityId>& ids) {
  model::GroundTruth out;
  for (const model::IdPair& pair : truth.AllMatches()) {
    if (ids.at(pair.low) == kNoId || ids.at(pair.high) == kNoId) continue;
    out.AddMatch(ids.at(pair.low), ids.at(pair.high));
  }
  return out;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

size_t Parallelism() { return std::max<size_t>(1, Nproc() / 2); }

double MedianSetupSeconds(int times, const std::function<void()>& setup) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    Clock::time_point start = Clock::now();
    setup();
    samples.push_back(Seconds(start, Clock::now()));
  }
  return Median(samples);
}

void RunPasses(double seconds, size_t min_passes,
               const std::function<void(size_t)>& pass) {
  Clock::time_point start = Clock::now();
  for (size_t passes = 0;;) {
    Clock::time_point pass_start = Clock::now();
    pass(passes++);
    double elapsed = Seconds(start, Clock::now());
    std::cerr << "perfbench: pass " << passes << " took "
              << Seconds(pass_start, Clock::now()) << " s\n";
    if (passes >= min_passes &&
        elapsed + elapsed / static_cast<double>(passes) > seconds) {
      return;
    }
  }
}

weber::serve::ShardedResolverOptions ResolverOptions(size_t shards,
                                                     size_t purge_cap) {
  weber::serve::ShardedResolverOptions options;
  options.shards = shards;
  options.match_threshold = kMatchThreshold;
  options.index.max_block_size = purge_cap;
  return options;
}

double HistogramMean(const obs::RegistrySnapshot& snapshot,
                     const std::string& name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0 : it->second.Mean();
}

double HistogramSum(const obs::RegistrySnapshot& snapshot,
                    const std::string& name) {
  auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end() ? 0.0 : it->second.sum;
}

uint64_t CounterValue(const obs::RegistrySnapshot& snapshot,
                      const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

double GaugeValue(const obs::RegistrySnapshot& snapshot,
                  const std::string& name) {
  auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0.0 : it->second;
}

void SetExecutorMetrics(const weber::core::ExecutorStats& before,
                        const weber::core::ExecutorStats& after, size_t passes,
                        const obs::RegistrySnapshot& snapshot,
                        RunResult& result) {
  const double n = static_cast<double>(std::max<size_t>(1, passes));
  result.Set("core.executor.tasks",
             static_cast<double>(after.tasks_run - before.tasks_run) / n,
             "count");
  result.Set("core.executor.steals",
             static_cast<double>(after.steals - before.steals) / n, "count");
  result.Set("core.executor.balance",
             HistogramMean(snapshot, "weber.executor.parallel_for_balance"),
             "ratio");
}

namespace {
double PerEntity(const obs::RegistrySnapshot& snapshot, const char* counter) {
  uint64_t ingested = CounterValue(snapshot, "weber.incremental.ingested");
  return ingested == 0 ? 0
                       : static_cast<double>(CounterValue(snapshot, counter)) /
                             static_cast<double>(ingested);
}
}  // namespace

void SetIncrementalMetrics(const obs::RegistrySnapshot& snapshot,
                           RunResult& result) {
  result.Set("incremental.ingest_s",
             HistogramMean(snapshot, "weber.incremental.ingest_seconds"), "s");
  result.Set("incremental.batch_entities",
             HistogramMean(snapshot, "weber.incremental.batch_entities"),
             "count");
  result.Set("incremental.candidates_per_entity",
             PerEntity(snapshot, "weber.incremental.candidates"), "count");
  result.Set("incremental.index_updates_per_entity",
             PerEntity(snapshot, "weber.incremental.index_updates"), "count");
}

void SetServeMetrics(const obs::RegistrySnapshot& snapshot,
                     RunResult& result) {
  uint64_t batches = CounterValue(snapshot, "weber.serve.batches");
  result.Set("serve.request_s",
             HistogramMean(snapshot, "weber.serve.request_seconds"), "s");
  result.Set("serve.requests_per_batch",
             batches == 0 ? 0
                          : static_cast<double>(CounterValue(
                                snapshot, "weber.serve.requests")) /
                                static_cast<double>(batches),
             "count");
  result.Set("serve.batch_occupancy",
             HistogramMean(snapshot, "weber.serve.batch_occupancy"), "share");
  result.Set("serve.shard_imbalance",
             HistogramMean(snapshot, "weber.serve.shard_imbalance"), "ratio");
}

double TotalSeconds(const std::vector<obs::SpanSnapshot>& roots,
                    const std::string& name) {
  double total = 0;
  for (const obs::SpanSnapshot& span : roots) {
    if (span.name == name) total += span.wall_seconds;
    total += TotalSeconds(span.children, name);
  }
  return total;
}

void SetTraceMetrics(const std::vector<obs::SpanSnapshot>& passes,
                     double untraced_wall_s, RunResult& result) {
  std::vector<double> walls;
  for (const obs::SpanSnapshot& pass : passes) {
    walls.push_back(pass.wall_seconds);
  }
  result.Set("trace.wall_s", Median(walls), "s");
  result.Set("obs.tracing_overhead_share",
             Median(walls) / untraced_wall_s - 1.0, "share");
}

double UnattributedShare(const std::vector<obs::SpanSnapshot>& passes) {
  double self = 0, total = 0;
  for (const obs::SpanSnapshot& pass : passes) {
    self += pass.wall_seconds;
    for (const obs::SpanSnapshot& child : pass.children) {
      self -= child.wall_seconds;
    }
    total += pass.wall_seconds;
  }
  return total > 0 ? self / total : 0;
}

void WriteTrace(const Args& args, const obs::MetricsRegistry& spans) {
  std::string path = args.workdir + "/trace-" + args.workload + ".json";
  std::ofstream out(path);
  obs::TraceEventExporter().Export(spans, out);
  if (!out) std::cerr << "perfbench: cannot write " << path << "\n";
}

obs::RegistrySnapshot Delta(const obs::RegistrySnapshot& before,
                            const obs::RegistrySnapshot& after) {
  obs::RegistrySnapshot delta;
  delta.gauges = after.gauges;
  for (const auto& [name, value] : after.counters) {
    delta.counters[name] = value - CounterValue(before, name);
  }
  for (const auto& [name, histogram] : after.histograms) {
    obs::HistogramSnapshot& out = delta.histograms[name] = histogram;
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    out.count -= it->second.count;
    out.sum -= it->second.sum;
    for (size_t i = 0; i < out.buckets.size() && i < it->second.buckets.size();
         ++i) {
      out.buckets[i] -= it->second.buckets[i];
    }
  }
  return delta;
}

double ClusterF1(const weber::matching::Clusters& clusters,
                 const model::GroundTruth& truth) {
  return weber::eval::EvaluateClusters(clusters, truth).F1();
}

}  // namespace perfbench
