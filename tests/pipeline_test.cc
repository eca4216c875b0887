#include <gtest/gtest.h>

#include <memory>

#include "blocking/token_blocking.h"
#include "core/pipeline.h"
#include "datagen/corpus_generator.h"
#include "eval/match_metrics.h"
#include "mapreduce/parallel_token_blocking.h"
#include "matching/matcher.h"
#include "metablocking/pruning_schemes.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "progressive/progressive_sn.h"
#include "progressive/psnm.h"
#include "tests/test_corpus.h"
#include "tests/test_json.h"

namespace weber::core {
namespace {

using ::weber::testing::TinyDirty;

datagen::Corpus MediumCorpus(uint64_t seed = 19) {
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = seed;
  return datagen::CorpusGenerator(config).GenerateDirty();
}

TEST(PipelineTest, EndToEndOnTinyCorpus) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  config.match_threshold = 0.45;
  PipelineResult result = RunPipeline(c, truth, config);
  EXPECT_GT(result.candidates, 0u);
  EXPECT_EQ(result.comparisons, result.candidates);  // No budget.
  eval::MatchQuality q = eval::EvaluateMatchPairs(result.matches, truth);
  EXPECT_DOUBLE_EQ(q.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(q.Precision(), 1.0);
}

TEST(PipelineTest, BudgetLimitsComparisons) {
  datagen::Corpus corpus = MediumCorpus();
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  config.budget = 50;
  PipelineResult result = RunPipeline(corpus.collection, corpus.truth, config);
  EXPECT_EQ(result.comparisons, 50u);
  EXPECT_EQ(result.curve.NumComparisons(), 50u);
}

TEST(PipelineTest, MetaBlockingShrinksCandidates) {
  datagen::Corpus corpus = MediumCorpus(23);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig plain;
  plain.blocker = &blocker;
  plain.matcher = &matcher;
  plain.match_threshold = 0.5;
  PipelineConfig meta = plain;
  meta.meta_blocking = {{metablocking::WeightScheme::kJs,
                         metablocking::PruningScheme::kWnp}};
  PipelineResult plain_result =
      RunPipeline(corpus.collection, corpus.truth, plain);
  PipelineResult meta_result =
      RunPipeline(corpus.collection, corpus.truth, meta);
  EXPECT_LT(meta_result.candidates, plain_result.candidates);
  // Meta-blocking preserves most of the recall at a fraction of the cost.
  eval::MatchQuality plain_q =
      eval::EvaluateMatchPairs(plain_result.matches, corpus.truth);
  eval::MatchQuality meta_q =
      eval::EvaluateMatchPairs(meta_result.matches, corpus.truth);
  EXPECT_GE(meta_q.Recall(), 0.6 * plain_q.Recall());
}

TEST(PipelineTest, BlockCleaningReducesCandidates) {
  datagen::Corpus corpus = MediumCorpus(29);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig plain;
  plain.blocker = &blocker;
  plain.matcher = &matcher;
  PipelineConfig cleaned = plain;
  cleaned.auto_purge = true;
  cleaned.filter_ratio = 0.6;
  PipelineResult plain_result =
      RunPipeline(corpus.collection, corpus.truth, plain);
  PipelineResult cleaned_result =
      RunPipeline(corpus.collection, corpus.truth, cleaned);
  EXPECT_LT(cleaned_result.candidates, plain_result.candidates);
}

TEST(PipelineTest, ProgressiveSchedulerImprovesEarlyRecall) {
  datagen::Corpus corpus = MediumCorpus(31);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  uint64_t budget = corpus.collection.size() * 2;

  PipelineConfig unordered;
  unordered.blocker = &blocker;
  unordered.matcher = &matcher;
  unordered.match_threshold = 0.5;
  unordered.budget = budget;

  PipelineConfig progressive_config = unordered;
  progressive_config.make_scheduler =
      [](const model::EntityCollection& collection,
         std::vector<model::IdPair> candidates)
      -> std::unique_ptr<progressive::PairScheduler> {
    (void)candidates;  // The SN scheduler derives its own order.
    return std::make_unique<progressive::ProgressiveSnScheduler>(collection);
  };

  PipelineResult unordered_result =
      RunPipeline(corpus.collection, corpus.truth, unordered);
  PipelineResult progressive_result =
      RunPipeline(corpus.collection, corpus.truth, progressive_config);
  EXPECT_GT(progressive_result.curve.RecallAt(budget),
            unordered_result.curve.RecallAt(budget));
}

TEST(PipelineTest, ClusteringChoiceChangesGranularity) {
  datagen::Corpus corpus = MediumCorpus(37);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  config.match_threshold = 0.35;  // Loose: noisy match graph.
  config.clustering = ClusteringAlgorithm::kConnectedComponents;
  PipelineResult cc = RunPipeline(corpus.collection, corpus.truth, config);
  config.clustering = ClusteringAlgorithm::kCenter;
  PipelineResult center =
      RunPipeline(corpus.collection, corpus.truth, config);
  // Center clustering never merges more than connected components.
  EXPECT_GE(center.clusters.size(), cc.clusters.size());
}

TEST(PipelineTest, TimingsArePopulated) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  PipelineResult result = RunPipeline(c, truth, config);
  EXPECT_GE(result.blocking_seconds, 0.0);
  EXPECT_GE(result.scheduling_seconds, 0.0);
  EXPECT_GE(result.matching_seconds, 0.0);
}

TEST(PipelineTest, CleanCleanCollection) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.duplicate_fraction = 0.5;
  config.schema_divergence = 0.5;
  config.seed = 41;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(config).GenerateCleanClean();
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig pipeline_config;
  pipeline_config.blocker = &blocker;
  pipeline_config.matcher = &matcher;
  pipeline_config.match_threshold = 0.5;
  PipelineResult result =
      RunPipeline(corpus.collection, corpus.truth, pipeline_config);
  // Every reported match crosses the source split.
  for (const model::IdPair& pair : result.matches) {
    EXPECT_TRUE(corpus.collection.Comparable(pair.low, pair.high));
  }
}

// ---------------------------------------------------------------------------
// Determinism across parallelism: every hot path is bit-deterministic, so a
// pipeline run must produce identical results for any num_threads.
// ---------------------------------------------------------------------------

PipelineResult RunWithThreads(const datagen::Corpus& corpus,
                              PipelineConfig config, size_t num_threads) {
  config.num_threads = num_threads;
  return RunPipeline(corpus.collection, corpus.truth, config);
}

void ExpectIdenticalRuns(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.curve.CumulativeMatches(), b.curve.CumulativeMatches());
}

TEST(PipelineDeterminismTest, MetaBlockingRunBitEqualAcrossThreadCounts) {
  datagen::Corpus corpus = MediumCorpus(43);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.auto_purge = true;
  config.meta_blocking = {{metablocking::WeightScheme::kEcbs,
                           metablocking::PruningScheme::kWnp}};
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  PipelineResult serial = RunWithThreads(corpus, config, 1);
  EXPECT_GT(serial.comparisons, 0u);
  ExpectIdenticalRuns(RunWithThreads(corpus, config, 2), serial);
  ExpectIdenticalRuns(RunWithThreads(corpus, config, 8), serial);
}

TEST(PipelineDeterminismTest, BudgetedAdaptiveRunBitEqualAcrossThreadCounts) {
  // PSNM adapts to feedback, so the runner pins its batch to 1 — the
  // budget, curve, and OnResult interleaving must still be identical for
  // any parallelism of the surrounding phases.
  datagen::Corpus corpus = MediumCorpus(47);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  config.budget = corpus.collection.size() * 3;
  config.make_scheduler =
      [](const model::EntityCollection& collection,
         std::vector<model::IdPair> candidates)
      -> std::unique_ptr<progressive::PairScheduler> {
    (void)candidates;
    return std::make_unique<progressive::PsnmScheduler>(collection);
  };
  PipelineResult serial = RunWithThreads(corpus, config, 1);
  EXPECT_EQ(serial.comparisons, config.budget);
  ExpectIdenticalRuns(RunWithThreads(corpus, config, 2), serial);
  ExpectIdenticalRuns(RunWithThreads(corpus, config, 8), serial);
}

// ---------------------------------------------------------------------------
// Observability integration: one run with an attached registry reports the
// whole Fig. 1 phase tree plus per-layer counters, exportable as JSON.
// ---------------------------------------------------------------------------

const obs::SpanSnapshot* FindChild(const obs::SpanSnapshot& parent,
                                   const std::string& name) {
  for (const obs::SpanSnapshot& child : parent.children) {
    if (child.name == name) return &child;
  }
  return nullptr;
}

TEST(PipelineObsTest, RunReportsSpansAndCounters) {
  datagen::Corpus corpus = MediumCorpus();
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  obs::MetricsRegistry registry;
  PipelineConfig config;
  config.blocker = &blocker;
  config.auto_purge = true;
  config.meta_blocking = {{metablocking::WeightScheme::kJs,
                           metablocking::PruningScheme::kWnp}};
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  config.metrics = &registry;
  PipelineResult result = RunPipeline(corpus.collection, corpus.truth,
                                      config);

  obs::RegistrySnapshot snap = registry.TakeSnapshot();

  // One span per Fig. 1 phase, with wall and CPU time populated.
  ASSERT_EQ(snap.trace.size(), 1u);
  const obs::SpanSnapshot& pipeline = snap.trace[0];
  EXPECT_EQ(pipeline.name, "pipeline");
  EXPECT_FALSE(pipeline.open);
  for (const char* phase :
       {"blocking", "scheduling", "matching", "clustering"}) {
    const obs::SpanSnapshot* span = FindChild(pipeline, phase);
    ASSERT_NE(span, nullptr) << phase;
    EXPECT_FALSE(span->open) << phase;
    EXPECT_GE(span->wall_seconds, 0.0) << phase;
    EXPECT_GE(span->cpu_seconds, 0.0) << phase;
  }

  // Pipeline-level counters agree with the returned result.
  EXPECT_EQ(snap.counters.at("weber.pipeline.candidates"),
            result.candidates);
  EXPECT_EQ(snap.counters.at("weber.pipeline.comparisons"),
            result.comparisons);
  EXPECT_EQ(snap.counters.at("weber.pipeline.matches"),
            result.matches.size());
  EXPECT_EQ(snap.counters.at("weber.pipeline.clusters"),
            result.clusters.size());

  // Blocker-level counters reported through the Blocker NVI wrapper.
  EXPECT_EQ(snap.counters.at("weber.blocking.builds"), 1u);
  EXPECT_GT(snap.counters.at("weber.blocking.blocks_built"), 0u);
  EXPECT_GE(snap.counters.at("weber.blocking.keys_emitted"),
            snap.counters.at("weber.blocking.blocks_built"));
  EXPECT_GT(snap.histograms.at("weber.blocking.block_size").count, 0u);

  // Meta-blocking graph and pruning counters.
  EXPECT_GT(snap.counters.at("weber.metablocking.graph_edges"), 0u);
  EXPECT_EQ(snap.counters.at("weber.metablocking.kept_edges"),
            result.candidates);
  EXPECT_EQ(snap.counters.at("weber.metablocking.graph_edges"),
            snap.counters.at("weber.metablocking.kept_edges") +
                snap.counters.at("weber.metablocking.pruned_edges"));
  EXPECT_EQ(snap.histograms.at("weber.metablocking.seconds").count, 1u);
  EXPECT_GT(snap.gauges.at("weber.metablocking.working_bytes"), 0.0);

  // Progressive scheduling counters.
  EXPECT_EQ(snap.counters.at("weber.progressive.comparisons"),
            result.comparisons);
  EXPECT_EQ(snap.counters.at("weber.matching.clusterings"), 1u);
  // Meta-blocking opens its own span inside the scheduling phase.
  const obs::SpanSnapshot* scheduling = FindChild(pipeline, "scheduling");
  ASSERT_NE(scheduling, nullptr);
  EXPECT_NE(FindChild(*scheduling, "metablocking"), nullptr);

  // Executor activity is flushed into the same registry at the end of the
  // run (the parallel hot paths dispatched real tasks for this corpus).
  EXPECT_GT(snap.counters.at("weber.executor.tasks_run"), 0u);
  EXPECT_GE(snap.gauges.at("weber.executor.workers"), 1.0);
}

TEST(PipelineObsTest, AmbientRegistryCollectsMapReduceAndPipeline) {
  datagen::Corpus corpus = MediumCorpus();
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);

  // A MapReduce blocking job and a pipeline run report into the same
  // ambient registry, so one JSON snapshot carries the whole story.
  blocking::BlockCollection parallel_blocks =
      mapreduce::ParallelTokenBlocking(corpus.collection, /*workers=*/3);
  EXPECT_GT(parallel_blocks.NumBlocks(), 0u);

  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  RunPipeline(corpus.collection, corpus.truth, config);

  obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_GE(snap.counters.at("weber.mapreduce.jobs"), 1u);
  EXPECT_GT(snap.counters.at("weber.mapreduce.intermediate_pairs"), 0u);
  EXPECT_GT(snap.counters.at("weber.pipeline.candidates"), 0u);
  EXPECT_EQ(snap.histograms.at("weber.mapreduce.map_seconds").count,
            snap.counters.at("weber.mapreduce.jobs"));

  std::string json = obs::JsonExporter().ToString(registry);
  weber::testing::JsonChecker checker;
  ASSERT_TRUE(checker.Parse(json));
  EXPECT_TRUE(checker.HasKey("weber.mapreduce.jobs"));
  EXPECT_TRUE(checker.HasKey("weber.pipeline.candidates"));
  EXPECT_TRUE(checker.HasKey("trace"));
}

TEST(PipelineObsTest, DetachedRunReportsNothing) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  obs::MetricsRegistry registry;
  PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  RunPipeline(c, truth, config);  // config.metrics left null.
  obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.trace.empty());
}

}  // namespace
}  // namespace weber::core
