// The two RunPipeline workloads.
//
// batch-metablocking: the paper's batch path (TokenBlocking, auto-purge,
// JS/WNP meta-blocking, prepared TokenJaccard, connected components) over
// 8 seeded 2k-entity dirty corpora, cycled across passes. Blocking, evaluation, meta-blocking, matching
// and clustering do all the work; serve, incremental and storage idle.
//
// stream-replay: RunPipeline in IncrementalMode (64-entity batches, one
// shard, purge cap 64) from a single caller: the er_cli --stream path
// through the incremental resolver, on the serve-ingest corpus.

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "common.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "eval/blocking_metrics.h"
#include "matching/match_graph.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "metablocking/pruning_schemes.h"
#include "progressive/scheduler.h"
#include "serve/sharded_resolver.h"
#include "util/union_find.h"

namespace perfbench {
namespace {

namespace core = weber::core;
namespace matching = weber::matching;
namespace metablocking = weber::metablocking;

// batch-metablocking's input: kBatchCorpora corpora of kBatchEntities
// entities (about 3.5k descriptions each).
constexpr size_t kBatchEntities = 2000;
constexpr size_t kBatchCorpora = 8;

core::PipelineConfig BatchConfig(const weber::blocking::Blocker& blocker,
                                 const matching::Matcher& matcher) {
  core::PipelineConfig config;
  config.blocker = &blocker;
  config.auto_purge = true;
  config.meta_blocking = {{metablocking::WeightScheme::kJs,
                           metablocking::PruningScheme::kWnp}};
  config.matcher = &matcher;
  config.match_threshold = kMatchThreshold;
  config.num_threads = Parallelism();
  return config;
}

core::PipelineConfig StreamConfig(const matching::Matcher& matcher) {
  core::IncrementalMode mode;
  mode.batch_size = kIngestBatch;
  mode.shards = 1;
  mode.index.max_block_size = kPurgeCap;
  core::PipelineConfig config;
  config.incremental = mode;
  config.matcher = &matcher;
  config.match_threshold = kMatchThreshold;
  config.num_threads = Parallelism();
  return config;
}

/// Output checks shared by both RunPipeline workloads: the clusters
/// partition the collection and are the connected components of the
/// reported matches, and every reported match really scores at or above
/// the threshold on the string path.
void CheckPipelineOutput(const model::EntityCollection& collection,
                         const matching::Matcher& matcher,
                         const core::PipelineResult& output,
                         RunResult& result) {
  const size_t n = collection.size();
  std::vector<int64_t> cluster_of(n, -1);
  bool partition = true;
  for (size_t c = 0; c < output.clusters.size(); ++c) {
    for (model::EntityId id : output.clusters[c]) {
      if (id >= n || cluster_of[id] != -1) partition = false;
      if (id < n) cluster_of[id] = static_cast<int64_t>(c);
    }
  }
  partition = partition && std::find(cluster_of.begin(), cluster_of.end(),
                                     -1) == cluster_of.end();
  result.Check(partition, "clusters partition the collection");
  if (!partition) return;

  weber::util::UnionFind components(n);
  size_t unions = 0;
  bool scores = true;
  bool consistent = true;
  for (const model::IdPair& pair : output.matches) {
    if (matcher.Similarity(collection.at(pair.low),
                           collection.at(pair.high)) < kMatchThreshold) {
      scores = false;
    }
    if (cluster_of[pair.low] != cluster_of[pair.high]) consistent = false;
    if (components.Union(pair.low, pair.high)) ++unions;
  }
  result.Check(scores, "every match scores at least the threshold");
  result.Check(consistent && output.clusters.size() == n - unions,
               "clusters are the connected components of the matches");
}

/// The batch pipeline composed from its layers' public functions, each
/// call wrapped in a benchmark span under one span per pass. Mirrors RunPipeline's batch branch
/// for BatchConfig, so it must produce the same matches.
struct ComposedRun {
  std::vector<model::IdPair> matches;
  matching::Clusters clusters;
  uint64_t comparisons = 0;
};

ComposedRun ComposedBatchPass(const weber::datagen::Corpus& corpus,
                              const weber::blocking::Blocker& blocker,
                              const matching::Matcher& matcher,
                              obs::Trace& trace, RunResult& result) {
  const model::EntityCollection& collection = corpus.collection;
  ComposedRun run;
  obs::Span root(&trace, "batch.pass");
  weber::blocking::BlockCollection blocks;
  {
    obs::Span span(&trace, "blocking.build");
    blocks = blocker.Build(collection);
  }
  {
    obs::Span span(&trace, "blocking.purge");
    weber::blocking::AutoPurgeBlocks(blocks);
  }
  result.Set("blocking.blocks", static_cast<double>(blocks.NumBlocks()),
             "count");
  {
    obs::Span span(&trace, "eval.blocks");
    weber::eval::EvaluateBlocks(blocks, corpus.truth);
  }
  std::vector<model::IdPair> candidates;
  {
    obs::Span span(&trace, "metablocking");
    candidates = metablocking::MetaBlock(blocks,
                                         metablocking::WeightScheme::kJs,
                                         metablocking::PruningScheme::kWnp);
  }
  result.Set("metablocking.candidates",
             static_cast<double>(candidates.size()), "count");
  std::unique_ptr<weber::progressive::PairScheduler> scheduler;
  {
    obs::Span span(&trace, "scheduling");
    scheduler = std::make_unique<weber::progressive::StaticListScheduler>(
        std::move(candidates));
  }
  std::optional<matching::SignatureStore> signatures;
  std::unique_ptr<matching::PreparedMatcher> prepared;
  {
    obs::Span span(&trace, "matching.prepare");
    Clock::time_point start = Clock::now();
    signatures.emplace(matching::SignatureStore::Build(
        collection, matching::OptionsFor(matcher)));
    prepared = matching::Prepare(matcher, *signatures);
    signatures->PublishMetrics(Seconds(start, Clock::now()));
  }
  {
    obs::Span span(&trace, "progressive.run");
    matching::ThresholdMatcher threshold(&matcher, kMatchThreshold);
    weber::progressive::ProgressiveRunResult progressive =
        weber::progressive::RunProgressive(
            collection, *scheduler, threshold,
            std::numeric_limits<uint64_t>::max(), corpus.truth,
            prepared.get());
    run.comparisons = progressive.comparisons;
    run.matches = std::move(progressive.reported);
  }
  {
    obs::Span span(&trace, "matching.cluster");
    matching::MatchGraph graph(collection.size());
    for (const model::IdPair& pair : run.matches) {
      graph.AddMatch(pair.low, pair.high);
    }
    run.clusters = matching::ConnectedComponents(graph);
  }
  result.Set("matching.match_share",
             run.comparisons > 0 ? static_cast<double>(run.matches.size()) /
                                       static_cast<double>(run.comparisons)
                                 : 0,
             "share");
  return run;
}

}  // namespace

void RunBatchMetablocking(const Args& args, RunResult& result) {
  // Several independent corpora per run, cycled through, so one seed's
  // block structure does not decide the run's timings.
  std::vector<weber::datagen::Corpus> corpora;
  for (size_t i = 0; i < kBatchCorpora; ++i) {
    corpora.push_back(BuildCorpus(SubSeed(args.seed, i), kBatchEntities));
  }
  weber::datagen::Corpus warmup = WarmupCorpus(args.seed);
  weber::blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  const core::PipelineConfig config = BatchConfig(blocker, matcher);

  // Set-up: the first pipeline run in a process spins up the executor
  // pool and the kernel dispatch, so a warm-up run finishes it.
  const double setup_s = MedianSetupSeconds(kSetups, [&] {
    core::RunPipeline(warmup.collection, warmup.truth,
                      BatchConfig(blocker, matcher));
  });

  std::vector<std::optional<core::PipelineResult>> first(kBatchCorpora);
  std::vector<double> walls, rates, walls_of_first;
  bool deterministic = true;
  RunPasses(args.seconds * (args.trace ? 0.5 : 1.0), kBatchCorpora,
            [&](size_t pass) {
    const size_t i = pass % kBatchCorpora;
    Clock::time_point start = Clock::now();
    core::PipelineResult output =
        core::RunPipeline(corpora[i].collection, corpora[i].truth, config);
    double wall = Seconds(start, Clock::now());
    walls.push_back(wall);
    rates.push_back(static_cast<double>(corpora[i].collection.size()) / wall);
    if (i == 0) walls_of_first.push_back(wall);
    if (!first[i].has_value()) {
      first[i] = std::move(output);
    } else if (output.matches != first[i]->matches) {
      deterministic = false;
    }
  });
  result.CountOps(walls.size(), 0);
  result.Check(deterministic, "every pass reports the same matches");
  double f1 = 0, pc = 0;
  for (size_t i = 0; i < kBatchCorpora; ++i) {
    CheckPipelineOutput(corpora[i].collection, matcher, *first[i], result);
    f1 += ClusterF1(first[i]->clusters, corpora[i].truth) / kBatchCorpora;
    pc += first[i]->blocking_quality.PairCompleteness() / kBatchCorpora;
  }

  // The traced run reports the timings too, from its untraced passes,
  // as ungated per-layer metrics (see README.md).
  result.Set("setup_s", setup_s, "s");
  result.Set("wall_s", Median(walls), "s");
  result.Set("entities_per_s", Median(rates), "1/s");
  result.Set("f1", f1, "share");
  result.Set("pc", pc, "share");
  result.Set("ok_share", 1.0, "share");
  result.Set("ingest_p50_ms", 1e3 * Median(walls), "ms");
  result.Set("ingest_p99_ms", 1e3 * Quantile(walls, 0.99), "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  // Traced: the same pipeline composed from its layers' public calls,
  // with the program's own metrics attached, for the rest of the run.
  obs::MetricsRegistry spans;
  obs::MetricsRegistry registry;
  core::ExecutorStats before = core::Executor::Shared().Snapshot();
  uint64_t comparisons = 0;
  bool same = true;
  {
    obs::ScopedRegistry attach(&registry);
    core::ScopedParallelism parallelism(config.num_threads);
    RunPasses(args.seconds * 0.5, 1, [&](size_t) {
      ComposedRun composed =
          ComposedBatchPass(corpora[0], blocker, matcher, spans.trace(), result);
      comparisons += composed.comparisons;
      same = same && composed.matches == first[0]->matches &&
             composed.clusters == first[0]->clusters;
    });
  }
  core::ExecutorStats after = core::Executor::Shared().Snapshot();
  result.Check(same,
               "the traced composition reports RunPipeline's matches and "
               "clusters");

  const std::vector<obs::SpanSnapshot> roots = spans.trace().Snapshot();
  const double passes = static_cast<double>(roots.size());
  obs::RegistrySnapshot snapshot = registry.TakeSnapshot(false);
  SetExecutorMetrics(before, after, roots.size(), snapshot, result);
  for (const char* layer :
       {"blocking.build", "blocking.purge", "eval.blocks", "metablocking",
        "matching.prepare", "progressive.run", "matching.cluster"}) {
    std::string name = layer;
    result.Set(name == "metablocking" ? "metablocking.s" : name + "_s",
               TotalSeconds(roots, name) / passes, "s");
  }
  result.Set("progressive.pairs_per_s",
             static_cast<double>(comparisons) /
                 TotalSeconds(roots, "progressive.run"),
             "1/s");
  const double graph_edges = static_cast<double>(
      CounterValue(snapshot, "weber.metablocking.graph_edges"));
  result.Set("metablocking.kept_share",
             graph_edges > 0
                 ? static_cast<double>(CounterValue(
                       snapshot, "weber.metablocking.kept_edges")) /
                       graph_edges
                 : 0,
             "share");
  result.Set("matching.arena_bytes",
             GaugeValue(snapshot, "weber.matching.signature.arena_bytes"),
             "B");
  result.Set("matching.kernel_level",
             GaugeValue(snapshot, "weber.matching.kernel.level"), "level");
  SetTraceMetrics(roots, Median(walls_of_first), result);
  const double unattributed = UnattributedShare(roots);
  result.Set("trace.unattributed_share", unattributed, "share");
  result.Check(unattributed <= kPartsTolerance,
               "layer self times add up to the traced wall time");
  WriteTrace(args, spans);
}

void RunStreamReplay(const Args& args, RunResult& result) {
  weber::datagen::Corpus corpus = BuildCorpus(args.seed, kServeEntities);
  weber::datagen::Corpus warmup = WarmupCorpus(args.seed);
  matching::TokenJaccardMatcher matcher;
  const core::PipelineConfig config = StreamConfig(matcher);

  const double setup_s = MedianSetupSeconds(kSetups, [&] {
    core::RunPipeline(warmup.collection, warmup.truth, StreamConfig(matcher));
  });

  std::optional<core::PipelineResult> first;
  std::vector<double> walls, ingest_s;
  bool deterministic = true;
  RunPasses(args.seconds * (args.trace ? 0.5 : 1.0), 1, [&](size_t) {
    Clock::time_point start = Clock::now();
    core::PipelineResult output =
        core::RunPipeline(corpus.collection, corpus.truth, config);
    walls.push_back(Seconds(start, Clock::now()));
    ingest_s.push_back(output.matching_seconds);  // The ingest loop alone.
    if (!first.has_value()) {
      first = std::move(output);
    } else if (output.matches != first->matches) {
      deterministic = false;
    }
  });
  result.CountOps(walls.size(), 0);
  result.Check(deterministic, "every pass reports the same matches");
  CheckPipelineOutput(corpus.collection, matcher, *first, result);

  // Oracle: a serial single-shard ShardedResolver replay of the same
  // stream resolves it identically.
  weber::serve::ShardedResolver oracle(&matcher, ResolverOptions(1, kPurgeCap));
  std::vector<model::EntityDescription> stream =
      Descriptions(corpus.collection);
  for (size_t begin = 0; begin < stream.size(); begin += kIngestBatch) {
    size_t end = std::min(stream.size(), begin + kIngestBatch);
    oracle.Ingest({stream.begin() + begin, stream.begin() + end});
  }
  result.Check(oracle.matches() == first->matches,
               "the stream's matches equal a serial ShardedResolver replay");

  // The traced run reports the timings too, from its untraced passes,
  // as ungated per-layer metrics (see README.md).
  const double n = static_cast<double>(corpus.collection.size());
  result.Set("setup_s", setup_s, "s");
  result.Set("wall_s", Median(walls), "s");
  result.Set("entities_per_s", n / Median(ingest_s), "1/s");
  result.Set("f1", ClusterF1(first->clusters, corpus.truth), "share");
  result.Set("pc", first->blocking_quality.PairCompleteness(), "share");
  result.Set("ok_share", 1.0, "share");
  result.Set("ingest_p50_ms", 1e3 * Median(walls), "ms");
  result.Set("ingest_p99_ms", 1e3 * Quantile(walls, 0.99), "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  obs::MetricsRegistry spans;
  obs::MetricsRegistry registry;
  core::PipelineConfig traced = config;
  traced.metrics = &registry;
  core::ExecutorStats before = core::Executor::Shared().Snapshot();
  bool same = true;
  RunPasses(args.seconds * 0.5, 1, [&](size_t) {
    obs::Span span(&spans.trace(), "pipeline.stream");
    core::PipelineResult output =
        core::RunPipeline(corpus.collection, corpus.truth, traced);
    same = same && output.matches == first->matches;
  });
  core::ExecutorStats after = core::Executor::Shared().Snapshot();
  result.Check(same, "the traced run reports the untraced run's matches");
  const std::vector<obs::SpanSnapshot> roots = spans.trace().Snapshot();
  obs::RegistrySnapshot snapshot = registry.TakeSnapshot(false);
  SetExecutorMetrics(before, after, roots.size(), snapshot, result);
  SetIncrementalMetrics(snapshot, result);
  SetTraceMetrics(roots, Median(walls), result);
  WriteTrace(args, spans);
}

}  // namespace perfbench
