#include "core/pipeline.h"

#include <atomic>
#include <limits>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "core/executor.h"
#include "incremental/resolver.h"
#include "matching/signatures.h"
#include "obs/metrics.h"
#include "serve/sharded_resolver.h"
#include "storage/durable.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::core {

namespace {

/// Phase the driving thread is currently executing, for check-failure
/// diagnostics (see ActivePipelinePhase). Stored as a pointer to a string
/// literal so readers in a crashing process never chase freed memory.
std::atomic<const char*> g_active_phase{nullptr};

/// Marks the enclosing scope as a named pipeline phase. Nests: leaving a
/// scope restores the phase that was active when it was entered.
class PhaseScope {
 public:
  explicit PhaseScope(const char* phase)
      : previous_(g_active_phase.exchange(phase, std::memory_order_relaxed)) {}
  ~PhaseScope() { g_active_phase.store(previous_, std::memory_order_relaxed); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* previous_;
};

/// Ids the resolver has issued, and a dense copy of its descriptions
/// (tombstones included, ids preserved) for when they are not the run's
/// input.
size_t StoreSize(const incremental::IncrementalResolver& resolver) {
  return resolver.store().size();
}
size_t StoreSize(const serve::ShardedResolver& resolver) {
  return resolver.size();
}
model::EntityCollection StoreCollection(
    const incremental::IncrementalResolver& resolver) {
  model::EntityCollection collection;
  for (model::EntityId id = 0; id < resolver.store().size(); ++id) {
    collection.Add(resolver.store().at(id));
  }
  return collection;
}
model::EntityCollection StoreCollection(
    const serve::ShardedResolver& resolver) {
  return resolver.CollectionSnapshot();
}

/// The resolve-on-ingest execution: replays the collection in ingest
/// batches through the resolver the mode selects, then reads quality,
/// clusters and counters back out of it. With merge propagation off this
/// reproduces the batch result exactly, at any shard count (see
/// IncrementalMode).
PipelineResult RunIncrementalPipeline(const model::EntityCollection& collection,
                                      const model::GroundTruth& truth,
                                      const PipelineConfig& config) {
  WEBER_CHECK(config.matcher != nullptr) << "pipeline needs a matcher";
  WEBER_CHECK(collection.setting() == model::ErSetting::kDirty)
      << "incremental mode resolves dirty collections";
  const IncrementalMode& mode = *config.incremental;
  WEBER_CHECK(mode.shards == 1 || !mode.merge_propagation)
      << "merge propagation is a single-shard feature (shards == 1)";
  PipelineResult result;
  util::Timer timer;

  obs::ScopedRegistry attach(config.metrics);
  obs::MetricsRegistry* registry = obs::Current();
  obs::Span pipeline_span(registry, "pipeline");
  // The sharded resolver narrows its own ingest phases to `shards`-way
  // parallelism; this pins everything else in the run.
  ScopedParallelism parallelism(config.num_threads);
  const size_t batch_size = mode.batch_size == 0 ? 64 : mode.batch_size;
  const bool durable = !mode.data_dir.empty();

  // The run, common to the three resolvers: `resolver` answers the
  // queries, `ingest` mutates through whatever owns it (the durable wrapper
  // logs first) and `checkpoint` folds a durable run into its data
  // directory.
  eval::ProgressiveCurve curve(truth.NumMatches());
  auto replay = [&](auto& resolver, auto ingest, auto checkpoint) {
    resolver.set_comparison_observer(
        [&curve, &truth](const model::IdPair& pair, bool matched) {
          curve.Record(matched && truth.IsMatch(pair));
        });

    // ---- Ingest: blocking + matching + update, interleaved per batch. --
    {
      obs::Span span(registry, "ingest");
      PhaseScope phase("ingest");
      std::vector<model::EntityDescription> batch;
      batch.reserve(batch_size);
      for (model::EntityId id = 0; id < collection.size(); ++id) {
        batch.push_back(collection.at(id));
        if (batch.size() == batch_size) {
          ingest(std::move(batch));
          batch.clear();
          batch.reserve(batch_size);
        }
      }
      if (!batch.empty()) ingest(std::move(batch));
    }
    result.matching_seconds = timer.ElapsedSeconds();
    timer.Restart();

    // The store holds exactly the input unless a data directory brought
    // history: only then is a copy of the store worth decoding.
    if (StoreSize(resolver) != collection.size()) {
      result.store_collection = StoreCollection(resolver);
    }
    const model::EntityCollection& store =
        result.store_collection.has_value() ? *result.store_collection
                                            : collection;

    // ---- Blocking quality, from the delta index's exported blocks. ----
    {
      obs::Span span(registry, "blocking");
      PhaseScope phase("blocking");
      blocking::BlockCollection blocks = resolver.IndexBlocks(&store);
      result.blocking_quality = eval::EvaluateBlocks(blocks, truth);
      if (registry != nullptr) {
        registry->GetCounter("weber.pipeline.blocks").Add(blocks.NumBlocks());
      }
    }
    result.blocking_seconds = timer.ElapsedSeconds();

    // ---- Clustering: the union-find components the resolver maintained.
    {
      obs::Span span(registry, "clustering");
      PhaseScope phase("clustering");
      result.clusters = resolver.Clusters();
    }

    result.candidates = resolver.candidates();
    result.comparisons = resolver.comparisons();
    result.matches = resolver.matches();
    result.curve = std::move(curve);

    // ---- Durability: fold the run into its data directory. ----
    if (durable) {
      obs::Span span(registry, "checkpoint");
      PhaseScope phase("checkpoint");
      storage::Status status = checkpoint();
      WEBER_CHECK(status.ok())
          << "final checkpoint failed: " << status.ToString();
    }
  };

  if (mode.shards > 1) {
    serve::ShardedResolverOptions options;
    options.shards = mode.shards;
    options.match_threshold = config.match_threshold;
    options.index = mode.index;
    options.prepared_matching = config.prepared_matching;
    options.data_dir = mode.data_dir;
    options.fsync = mode.fsync;
    options.snapshot_every = mode.snapshot_every;
    options.metrics = registry;
    serve::ShardedResolver resolver(config.matcher, options);
    WEBER_CHECK(resolver.recovery_status().ok())
        << "durable recovery failed: "
        << resolver.recovery_status().ToString();
    replay(
        resolver,
        [&resolver](std::vector<model::EntityDescription> batch) {
          resolver.Ingest(std::move(batch));
        },
        [&resolver] { return resolver.Checkpoint(); });
  } else {
    incremental::ResolverOptions options;
    options.match_threshold = config.match_threshold;
    options.index = mode.index;
    options.merge_propagation = mode.merge_propagation;
    options.prepared_matching = config.prepared_matching;
    options.metrics = registry;
    if (durable) {
      storage::DurabilityOptions durability;
      durability.data_dir = mode.data_dir;
      durability.snapshot_every = mode.snapshot_every;
      durability.fsync = mode.fsync;
      storage::DurableResolver wrapper(config.matcher, options, durability);
      WEBER_CHECK(wrapper.recovery_status().ok())
          << "durable recovery failed: "
          << wrapper.recovery_status().ToString();
      replay(
          wrapper.resolver(),
          [&wrapper](std::vector<model::EntityDescription> batch) {
            wrapper.Ingest(std::move(batch));
          },
          [&wrapper] { return wrapper.Checkpoint(); });
    } else {
      incremental::IncrementalResolver resolver(config.matcher, options);
      replay(
          resolver,
          [&resolver](std::vector<model::EntityDescription> batch) {
            resolver.Ingest(std::move(batch));
          },
          [] { return storage::Status::Ok(); });
    }
  }

  if (registry != nullptr) {
    registry->GetCounter("weber.pipeline.candidates").Add(result.candidates);
    registry->GetCounter("weber.pipeline.comparisons").Add(result.comparisons);
    registry->GetCounter("weber.pipeline.matches").Add(result.matches.size());
    registry->GetCounter("weber.pipeline.clusters")
        .Add(result.clusters.size());
    registry->GetCounter("weber.pipeline.runs").Increment();
    Executor::Shared().PublishMetrics();
  }
  return result;
}

}  // namespace

const char* ActivePipelinePhase() {
  return g_active_phase.load(std::memory_order_relaxed);
}

PipelineResult RunPipeline(const model::EntityCollection& collection,
                           const model::GroundTruth& truth,
                           const PipelineConfig& config) {
  if (config.incremental.has_value()) {
    return RunIncrementalPipeline(collection, truth, config);
  }
  WEBER_CHECK(config.blocker != nullptr) << "pipeline needs a blocker";
  WEBER_CHECK(config.matcher != nullptr) << "pipeline needs a matcher";
  WEBER_CHECK_GT(config.filter_ratio, 0.0)
      << "filter_ratio must be positive (1.0 keeps every block)";
  PipelineResult result;
  util::Timer timer;

  // Make the configured registry ambient for every nested layer; a null
  // config.metrics leaves any caller-installed registry in place.
  obs::ScopedRegistry attach(config.metrics);
  obs::MetricsRegistry* registry = obs::Current();
  obs::Span pipeline_span(registry, "pipeline");
  // Pin the parallelism of every hot path for the whole run; 0 keeps the
  // shared executor's worker count (or an enclosing override).
  ScopedParallelism parallelism(config.num_threads);

  // ---- Blocking phase (plus optional cleaning). ----
  blocking::BlockCollection blocks;
  {
    obs::Span span(registry, "blocking");
    PhaseScope phase("blocking");
    blocks = config.blocker->Build(collection);
    size_t blocks_before_cleaning = blocks.NumBlocks();
    if (config.auto_purge) {
      blocking::AutoPurgeBlocks(blocks);
    }
    size_t blocks_after_purge = blocks.NumBlocks();
    if (config.filter_ratio < 1.0) {
      blocks = blocking::FilterBlocks(blocks, config.filter_ratio);
    }
    if (registry != nullptr) {
      registry->GetCounter("weber.pipeline.purged_blocks")
          .Add(blocks_before_cleaning - blocks_after_purge);
      registry->GetCounter("weber.pipeline.blocks")
          .Add(blocks.NumBlocks());
    }
  }
  result.blocking_quality = eval::EvaluateBlocks(blocks, truth);
  result.blocking_seconds = timer.ElapsedSeconds();
  timer.Restart();

  // ---- Candidate generation: meta-blocking or distinct block pairs. ----
  std::vector<model::IdPair> candidates;
  std::unique_ptr<progressive::PairScheduler> scheduler;
  {
    obs::Span span(registry, "scheduling");
    PhaseScope phase("scheduling");
    if (config.meta_blocking.has_value()) {
      candidates = metablocking::MetaBlock(blocks,
                                           config.meta_blocking->first,
                                           config.meta_blocking->second);
    } else {
      candidates = blocks.DistinctPairList(blocks.EntityToBlocks());
    }
    result.candidates = candidates.size();
    if (registry != nullptr) {
      registry->GetCounter("weber.pipeline.candidates")
          .Add(result.candidates);
    }

    if (config.make_scheduler) {
      scheduler = config.make_scheduler(collection, std::move(candidates));
    } else {
      scheduler = std::make_unique<progressive::StaticListScheduler>(
          std::move(candidates));
    }
    WEBER_CHECK(scheduler != nullptr)
        << "make_scheduler returned null; the matching phase needs a "
        << "schedule";
  }
  result.scheduling_seconds = timer.ElapsedSeconds();
  timer.Restart();

  // ---- Matching + update phases under the budget. ----
  {
    obs::Span span(registry, "matching");
    PhaseScope phase("matching");
    matching::ThresholdMatcher threshold_matcher(config.matcher,
                                                 config.match_threshold);
    // Intern the collection once and score over signatures; bit-equal to
    // the string path, so the knob only trades build time for pair cost.
    std::optional<matching::SignatureStore> signatures;
    std::unique_ptr<matching::PreparedMatcher> prepared;
    if (config.prepared_matching && matching::Preparable(*config.matcher)) {
      obs::Span prepare_span(registry, "prepare");
      PhaseScope prepare_phase("prepare");
      util::Timer prepare_timer;
      signatures.emplace(matching::SignatureStore::Build(
          collection, matching::OptionsFor(*config.matcher)));
      prepared = matching::Prepare(*config.matcher, *signatures);
      if (prepared != nullptr) {
        signatures->PublishMetrics(prepare_timer.ElapsedSeconds());
      }
    }
    uint64_t budget = config.budget == 0
                          ? std::numeric_limits<uint64_t>::max()
                          : config.budget;
    progressive::ProgressiveRunResult run = progressive::RunProgressive(
        collection, *scheduler, threshold_matcher, budget, truth,
        prepared.get());
    result.comparisons = run.comparisons;
    result.matches = std::move(run.reported);
    result.curve = std::move(run.curve);
  }
  result.matching_seconds = timer.ElapsedSeconds();

  // ---- Clustering. ----
  {
    obs::Span span(registry, "clustering");
    PhaseScope phase("clustering");
    matching::MatchGraph graph(collection.size());
    for (const model::IdPair& pair : result.matches) {
      graph.AddMatch(pair.low, pair.high);
    }
    switch (config.clustering) {
      case ClusteringAlgorithm::kConnectedComponents:
        result.clusters = matching::ConnectedComponents(graph);
        break;
      case ClusteringAlgorithm::kCenter:
        result.clusters = matching::CenterClustering(graph);
        break;
      case ClusteringAlgorithm::kMergeCenter:
        result.clusters = matching::MergeCenterClustering(graph);
        break;
    }
  }

  if (registry != nullptr) {
    registry->GetCounter("weber.pipeline.comparisons").Add(result.comparisons);
    registry->GetCounter("weber.pipeline.matches").Add(result.matches.size());
    registry->GetCounter("weber.pipeline.clusters")
        .Add(result.clusters.size());
    registry->GetCounter("weber.pipeline.runs").Increment();
    // Flush what the executor accumulated during this run (tasks, steals,
    // utilization) into the same registry as the pipeline counters.
    Executor::Shared().PublishMetrics();
  }
  return result;
}

}  // namespace weber::core
