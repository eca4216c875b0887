#include <gtest/gtest.h>

#include <vector>

#include "blocking/block_purging.h"
#include "blocking/qgrams_blocking.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "datagen/corpus_generator.h"
#include "eval/block_stats.h"
#include "eval/blocking_metrics.h"
#include "eval/match_metrics.h"
#include "eval/progressive_curve.h"
#include "tests/test_corpus.h"

namespace weber::eval {
namespace {

using ::weber::testing::TinyDirty;

// ---------------------------------------------------------------------------
// Blocking metrics
// ---------------------------------------------------------------------------

TEST(BlockingQualityTest, PerfectBlocking) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"a", {0, 1}});
  blocks.AddBlock(blocking::Block{"b", {2, 3}});
  BlockingQuality q = EvaluateBlocks(blocks, truth);
  EXPECT_EQ(q.comparisons, 2u);
  EXPECT_EQ(q.matches_covered, 2u);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 1.0);
  EXPECT_DOUBLE_EQ(q.PairQuality(), 1.0);
  EXPECT_DOUBLE_EQ(q.ReductionRatio(), 1.0 - 2.0 / 15.0);
  EXPECT_GT(q.FMeasure(), 0.9);
}

TEST(BlockingQualityTest, MissedMatchesLowerPc) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"a", {0, 1}});  // Misses {2,3}.
  BlockingQuality q = EvaluateBlocks(blocks, truth);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 0.5);
}

TEST(BlockingQualityTest, RedundancyCountedSeparately) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"a", {0, 1}});
  blocks.AddBlock(blocking::Block{"b", {0, 1}});
  BlockingQuality q = EvaluateBlocks(blocks, truth);
  EXPECT_EQ(q.comparisons, 1u);
  EXPECT_EQ(q.comparisons_with_redundancy, 2u);
}

TEST(BlockingQualityTest, EmptyBlockingZeroPq) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  blocking::BlockCollection blocks(&c);
  BlockingQuality q = EvaluateBlocks(blocks, truth);
  EXPECT_EQ(q.comparisons, 0u);
  EXPECT_DOUBLE_EQ(q.PairQuality(), 0.0);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 0.0);
}

TEST(BlockingQualityTest, EvaluatePairsDeduplicates) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  std::vector<model::IdPair> pairs = {model::IdPair::Of(0, 1),
                                      model::IdPair::Of(1, 0),
                                      model::IdPair::Of(4, 5)};
  BlockingQuality q = EvaluatePairs(pairs, truth, c);
  EXPECT_EQ(q.comparisons, 2u);
  EXPECT_EQ(q.matches_covered, 1u);
  EXPECT_DOUBLE_EQ(q.PairQuality(), 0.5);
}

TEST(BlockingQualityTest, NoTruthMeansPerfectPc) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"a", {0, 1}});
  EXPECT_DOUBLE_EQ(EvaluateBlocks(blocks, truth).PairCompleteness(), 1.0);
}

// ---------------------------------------------------------------------------
// Cross-path consistency: EvaluateBlocks vs EvaluatePairs must agree on
// the distinct-pair view of the same collection.
// ---------------------------------------------------------------------------

// Every field of EvaluateBlocks pinned on seeded corpora. The values were
// recorded from the hash-set pair walk that comparison propagation
// replaced, so any change here is a behaviour change.
struct PinnedQuality {
  uint64_t comparisons;
  uint64_t comparisons_with_redundancy;
  uint64_t matches_covered;
  uint64_t total_matches;
  uint64_t total_possible_comparisons;
};

void ExpectQuality(const BlockingQuality& q, const PinnedQuality& pinned) {
  EXPECT_EQ(q.comparisons, pinned.comparisons);
  EXPECT_EQ(q.comparisons_with_redundancy,
            pinned.comparisons_with_redundancy);
  EXPECT_EQ(q.matches_covered, pinned.matches_covered);
  EXPECT_EQ(q.total_matches, pinned.total_matches);
  EXPECT_EQ(q.total_possible_comparisons, pinned.total_possible_comparisons);
}

datagen::CorpusConfig PinnedConfig() {
  datagen::CorpusConfig config;
  config.num_entities = 300;
  config.seed = 2026;
  return config;
}

TEST(BlockingQualityTest, PinnedOnSeededCorpora) {
  datagen::Corpus dirty =
      datagen::CorpusGenerator(PinnedConfig()).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(dirty.collection);
  ExpectQuality(EvaluateBlocks(blocks, dirty.truth),
                {102394, 160991, 328, 328, 144991});
  EXPECT_EQ(ComputeBlockStats(blocks).distinct_comparisons, 102394u);
  blocking::AutoPurgeBlocks(blocks);
  ExpectQuality(EvaluateBlocks(blocks, dirty.truth),
                {14390, 17165, 328, 328, 144991});
  ExpectQuality(
      EvaluateBlocks(blocking::QGramsBlocking(3).Build(dirty.collection),
                     dirty.truth),
      {113044, 862563, 328, 328, 144991});

  datagen::CorpusConfig config = PinnedConfig();
  config.schema_divergence = 0.3;
  datagen::Corpus clean =
      datagen::CorpusGenerator(config).GenerateCleanClean();
  ExpectQuality(
      EvaluateBlocks(blocking::TokenBlocking().Build(clean.collection),
                     clean.truth),
      {67664, 111295, 150, 150, 90000});
}

TEST(BlockingQualityTest, IdenticalForAnyThreadCount) {
  datagen::Corpus corpus =
      datagen::CorpusGenerator(PinnedConfig()).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::QGramsBlocking(3).Build(corpus.collection);
  std::vector<BlockingQuality> runs;
  std::vector<uint64_t> counts;
  for (size_t threads : {1, 2, 8}) {
    core::ScopedParallelism parallelism(threads);
    runs.push_back(EvaluateBlocks(blocks, corpus.truth));
    counts.push_back(blocks.CountDistinctPairs());
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].comparisons, runs[0].comparisons);
    EXPECT_EQ(runs[r].matches_covered, runs[0].matches_covered);
    EXPECT_EQ(runs[r].comparisons_with_redundancy,
              runs[0].comparisons_with_redundancy);
    EXPECT_EQ(counts[r], counts[0]);
  }
  EXPECT_EQ(counts[0], runs[0].comparisons);
}

TEST(EvaluationConsistencyTest, BlocksAndPairsPathsAgree) {
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.duplicate_fraction = 0.5;
  config.seed = 83;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  BlockingQuality via_blocks = EvaluateBlocks(blocks, corpus.truth);
  std::vector<model::IdPair> pairs;
  for (const model::IdPair& pair : blocks.DistinctPairs()) {
    pairs.push_back(pair);
  }
  BlockingQuality via_pairs =
      EvaluatePairs(pairs, corpus.truth, corpus.collection);
  EXPECT_EQ(via_blocks.comparisons, via_pairs.comparisons);
  EXPECT_EQ(via_blocks.matches_covered, via_pairs.matches_covered);
  EXPECT_DOUBLE_EQ(via_blocks.PairCompleteness(),
                   via_pairs.PairCompleteness());
  EXPECT_DOUBLE_EQ(via_blocks.ReductionRatio(), via_pairs.ReductionRatio());
  // Redundancy differs by construction: the pair path has none.
  EXPECT_GE(via_blocks.comparisons_with_redundancy,
            via_pairs.comparisons_with_redundancy);
}

TEST(EvaluationConsistencyTest, PairwiseClusterMetricsAgreeWithPairList) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(2, 3);
  matching::Clusters clusters = {{0, 1}, {2, 3, 4}};
  MatchQuality via_clusters = EvaluateClusters(clusters, truth);
  MatchQuality via_pairs = EvaluateMatchPairs(
      matching::ClusterPairs(clusters), truth);
  EXPECT_EQ(via_clusters.true_positives, via_pairs.true_positives);
  EXPECT_EQ(via_clusters.reported, via_pairs.reported);
}

// ---------------------------------------------------------------------------
// Match metrics
// ---------------------------------------------------------------------------

TEST(MatchQualityTest, PrecisionRecallF1) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(2, 3);
  std::vector<model::IdPair> reported = {model::IdPair::Of(0, 1),
                                         model::IdPair::Of(4, 5)};
  MatchQuality q = EvaluateMatchPairs(reported, truth);
  EXPECT_DOUBLE_EQ(q.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(q.Recall(), 0.5);
  EXPECT_DOUBLE_EQ(q.F1(), 0.5);
}

TEST(MatchQualityTest, EmptyReport) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  MatchQuality q = EvaluateMatchPairs({}, truth);
  EXPECT_DOUBLE_EQ(q.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(q.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(q.F1(), 0.0);
}

TEST(MatchQualityTest, EmptyTruthPerfectRecall) {
  model::GroundTruth truth;
  MatchQuality q = EvaluateMatchPairs({model::IdPair::Of(0, 1)}, truth);
  EXPECT_DOUBLE_EQ(q.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(q.Precision(), 0.0);
}

TEST(MatchQualityTest, EvaluateClustersPairwise) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(1, 2);  // Cluster {0,1,2}: 3 pairs.
  matching::Clusters clusters = {{0, 1, 2}, {3}};
  MatchQuality q = EvaluateClusters(clusters, truth);
  EXPECT_EQ(q.true_positives, 3u);
  EXPECT_DOUBLE_EQ(q.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(q.Recall(), 1.0);
}

// ---------------------------------------------------------------------------
// Block statistics
// ---------------------------------------------------------------------------

TEST(BlockStatsTest, BasicStatistics) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"a", {0, 1}});
  blocks.AddBlock(blocking::Block{"b", {0, 1}});          // Redundant pair.
  blocks.AddBlock(blocking::Block{"c", {2, 3, 4, 5}});
  BlockStats stats = ComputeBlockStats(blocks);
  EXPECT_EQ(stats.num_blocks, 3u);
  EXPECT_EQ(stats.min_size, 2u);
  EXPECT_EQ(stats.max_size, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_size, 8.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.median_size, 2.0);
  EXPECT_EQ(stats.comparisons_with_redundancy, 1u + 1u + 6u);
  EXPECT_EQ(stats.distinct_comparisons, 7u);
  EXPECT_NEAR(stats.redundancy_factor, 8.0 / 7.0, 1e-12);
  EXPECT_NEAR(stats.largest_block_share, 6.0 / 8.0, 1e-12);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(BlockStatsTest, EmptyCollection) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  BlockStats stats = ComputeBlockStats(blocks);
  EXPECT_EQ(stats.num_blocks, 0u);
  EXPECT_EQ(stats.distinct_comparisons, 0u);
}

TEST(BlockStatsTest, TokenBlockingIsSkewedAndRedundant) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.seed = 3;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  BlockStats stats = ComputeBlockStats(blocks);
  EXPECT_GT(stats.redundancy_factor, 1.5);       // Tokens overlap heavily.
  EXPECT_GT(stats.max_size, 10 * stats.median_size);  // Zipf skew.
}

// ---------------------------------------------------------------------------
// B-cubed
// ---------------------------------------------------------------------------

TEST(BCubedTest, PerfectClustering) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(2, 3);
  matching::Clusters clusters = {{0, 1}, {2, 3}, {4}};
  BCubedQuality q = EvaluateBCubed(clusters, truth, 5);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.F1(), 1.0);
}

TEST(BCubedTest, AllSingletonsPerfectPrecisionLowRecall) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  matching::Clusters clusters = {{0}, {1}};
  BCubedQuality q = EvaluateBCubed(clusters, truth, 2);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);  // Each element finds 1 of its 2.
}

TEST(BCubedTest, EverythingInOneClusterPerfectRecallLowPrecision) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  matching::Clusters clusters = {{0, 1, 2, 3}};
  BCubedQuality q = EvaluateBCubed(clusters, truth, 4);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  // Elements 0,1: 2/4 correct; elements 2,3: 1/4 correct.
  EXPECT_DOUBLE_EQ(q.precision, (0.5 + 0.5 + 0.25 + 0.25) / 4.0);
}

TEST(BCubedTest, ChainingPenalisedLessThanPairwise) {
  // Two true clusters of 3 glued into one predicted cluster of 6.
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  truth.AddMatch(1, 2);
  truth.AddMatch(3, 4);
  truth.AddMatch(4, 5);
  matching::Clusters glued = {{0, 1, 2, 3, 4, 5}};
  BCubedQuality bcubed = EvaluateBCubed(glued, truth, 6);
  MatchQuality pairwise = EvaluateClusters(glued, truth);
  EXPECT_DOUBLE_EQ(bcubed.precision, 0.5);  // 3 of 6 cluster-mates right.
  EXPECT_DOUBLE_EQ(pairwise.Precision(), 6.0 / 15.0);
  EXPECT_GT(bcubed.precision, pairwise.Precision());
}

TEST(BCubedTest, UncoveredElementsAreSingletons) {
  model::GroundTruth truth;
  truth.AddMatch(0, 1);
  matching::Clusters partial = {{0, 1}};  // 2 and 3 not mentioned.
  BCubedQuality q = EvaluateBCubed(partial, truth, 4);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
}

TEST(BCubedTest, EmptyUniverse) {
  model::GroundTruth truth;
  BCubedQuality q = EvaluateBCubed({}, truth, 0);
  EXPECT_DOUBLE_EQ(q.F1(), 0.0);
}

// ---------------------------------------------------------------------------
// Progressive curve
// ---------------------------------------------------------------------------

TEST(ProgressiveCurveTest, RecallAtBudget) {
  ProgressiveCurve curve(4);
  curve.Record(true);
  curve.Record(false);
  curve.Record(true);
  curve.Record(false);
  EXPECT_EQ(curve.MatchesAt(1), 1u);
  EXPECT_EQ(curve.MatchesAt(3), 2u);
  EXPECT_DOUBLE_EQ(curve.RecallAt(3), 0.5);
  EXPECT_DOUBLE_EQ(curve.RecallAt(100), 0.5);  // Budget beyond recording.
  EXPECT_EQ(curve.NumComparisons(), 4u);
}

TEST(ProgressiveCurveTest, IdealCurveHasAucOne) {
  ProgressiveCurve curve(3);
  curve.Record(true);
  curve.Record(true);
  curve.Record(true);
  curve.Record(false);
  EXPECT_DOUBLE_EQ(curve.AreaUnderCurve(), 1.0);
}

TEST(ProgressiveCurveTest, EarlyMatchesBeatLateMatches) {
  ProgressiveCurve early(2);
  early.Record(true);
  early.Record(true);
  early.Record(false);
  early.Record(false);
  ProgressiveCurve late(2);
  late.Record(false);
  late.Record(false);
  late.Record(true);
  late.Record(true);
  EXPECT_GT(early.AreaUnderCurve(), late.AreaUnderCurve());
}

TEST(ProgressiveCurveTest, CumulativeMatchesMonotone) {
  ProgressiveCurve curve(5);
  curve.Record(true);
  curve.Record(false);
  curve.Record(true);
  auto cumulative = curve.CumulativeMatches();
  ASSERT_EQ(cumulative.size(), 3u);
  EXPECT_EQ(cumulative[0], 1u);
  EXPECT_EQ(cumulative[1], 1u);
  EXPECT_EQ(cumulative[2], 2u);
}

TEST(ProgressiveCurveTest, EmptyCurve) {
  ProgressiveCurve curve(5);
  EXPECT_DOUBLE_EQ(curve.AreaUnderCurve(), 0.0);
  EXPECT_DOUBLE_EQ(curve.RecallAt(10), 0.0);
}

TEST(ProgressiveCurveTest, BudgetTruncatesAuc) {
  ProgressiveCurve curve(2);
  curve.Record(false);
  curve.Record(true);
  curve.Record(true);
  double full = curve.AreaUnderCurve();
  double truncated = curve.AreaUnderCurve(1);
  EXPECT_GT(full, truncated);
}

}  // namespace
}  // namespace weber::eval
