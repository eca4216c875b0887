// Failure-injection and degenerate-input coverage: every module must
// behave sanely on empty collections, singletons, pathological strings,
// and extreme configurations.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "blocking/attribute_clustering.h"
#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/canopy_clustering.h"
#include "blocking/frequent_tokens.h"
#include "blocking/multidimensional.h"
#include "blocking/prefix_infix_suffix.h"
#include "blocking/qgrams_blocking.h"
#include "blocking/sorted_neighborhood.h"
#include "blocking/standard_blocking.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "iterative/collective.h"
#include "iterative/iterative_blocking.h"
#include "iterative/rswoosh.h"
#include "mapreduce/parallel_token_blocking.h"
#include "matching/matcher.h"
#include "metablocking/pruning_schemes.h"
#include "progressive/benefit_cost.h"
#include "progressive/ordered_blocks.h"
#include "progressive/partition_hierarchy.h"
#include "progressive/progressive_sn.h"
#include "progressive/psnm.h"
#include "simjoin/all_pairs.h"
#include "simjoin/ppjoin.h"
#include "metablocking/weight_schemes.h"
#include "text/qgram.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "tests/test_corpus.h"

namespace weber {
namespace {

std::vector<std::unique_ptr<blocking::Blocker>> AllBlockers() {
  std::vector<std::unique_ptr<blocking::Blocker>> blockers;
  blockers.push_back(std::make_unique<blocking::TokenBlocking>());
  blockers.push_back(std::make_unique<blocking::StandardBlocking>(
      std::vector<std::string>{"name"}));
  blockers.push_back(std::make_unique<blocking::SortedNeighborhood>(4));
  blockers.push_back(std::make_unique<blocking::QGramsBlocking>(3));
  blockers.push_back(std::make_unique<blocking::SuffixBlocking>(4));
  blockers.push_back(
      std::make_unique<blocking::AttributeClusteringBlocking>());
  blockers.push_back(std::make_unique<blocking::CanopyClustering>());
  blockers.push_back(
      std::make_unique<blocking::PrefixInfixSuffixBlocking>());
  blockers.push_back(
      std::make_unique<blocking::FrequentTokenPairBlocking>());
  return blockers;
}

// ---------------------------------------------------------------------------
// Empty collection through everything
// ---------------------------------------------------------------------------

TEST(RobustnessTest, EmptyCollectionThroughAllBlockers) {
  model::EntityCollection empty;
  for (const auto& blocker : AllBlockers()) {
    blocking::BlockCollection blocks = blocker->Build(empty);
    EXPECT_TRUE(blocks.empty()) << blocker->name();
    EXPECT_EQ(blocking::AutoPurgeBlocks(blocks), 0u) << blocker->name();
    EXPECT_TRUE(blocking::FilterBlocks(blocks, 0.5).empty())
        << blocker->name();
  }
}

TEST(RobustnessTest, EmptyCollectionThroughResolvers) {
  model::EntityCollection empty;
  matching::TokenJaccardMatcher matcher;
  EXPECT_TRUE(iterative::RSwoosh(empty, {&matcher, 0.5}).resolved.empty());
  EXPECT_TRUE(
      iterative::NaivePairwiseResolve(empty, {&matcher, 0.5}).clusters
          .empty());
  EXPECT_TRUE(
      iterative::CollectiveResolve(empty, {}, matcher, {}).matches.empty());
}

TEST(RobustnessTest, EmptyCollectionThroughSchedulers) {
  model::EntityCollection empty;
  progressive::ProgressiveSnScheduler sn(empty);
  EXPECT_FALSE(sn.NextPair().has_value());
  progressive::PsnmScheduler psnm(empty);
  EXPECT_FALSE(psnm.NextPair().has_value());
  progressive::PartitionHierarchyScheduler hierarchy(empty);
  EXPECT_FALSE(hierarchy.NextPair().has_value());
  progressive::BenefitCostScheduler benefit(empty, {}, {});
  EXPECT_FALSE(benefit.NextPair().has_value());
}

TEST(RobustnessTest, EmptyCollectionThroughSimjoinAndParallel) {
  model::EntityCollection empty;
  simjoin::TokenSetCollection sets = simjoin::TokenSetCollection::Build(empty);
  EXPECT_TRUE(simjoin::AllPairsJoin(sets, 0.5).empty());
  EXPECT_TRUE(simjoin::PPJoin(sets, 0.5).empty());
  EXPECT_TRUE(mapreduce::ParallelTokenBlocking(empty, 4).empty());
}

TEST(RobustnessTest, EmptyCollectionThroughPipeline) {
  model::EntityCollection empty;
  model::GroundTruth truth;
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  core::PipelineResult result = core::RunPipeline(empty, truth, config);
  EXPECT_EQ(result.candidates, 0u);
  EXPECT_TRUE(result.clusters.empty());
}

// ---------------------------------------------------------------------------
// Singleton and identical-entity corpora
// ---------------------------------------------------------------------------

TEST(RobustnessTest, SingleEntityCollection) {
  model::EntityCollection c;
  model::EntityDescription d("u0");
  d.AddPair("name", "only one here");
  c.Add(d);
  for (const auto& blocker : AllBlockers()) {
    EXPECT_EQ(blocker->Build(c).DistinctPairs().size(), 0u)
        << blocker->name();
  }
  matching::TokenJaccardMatcher matcher;
  iterative::SwooshResult swoosh = iterative::RSwoosh(c, {&matcher, 0.5});
  EXPECT_EQ(swoosh.resolved.size(), 1u);
  EXPECT_EQ(swoosh.comparisons, 0u);
}

TEST(RobustnessTest, AllIdenticalEntities) {
  model::EntityCollection c;
  for (int i = 0; i < 12; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("name", "exactly the same text");
    c.Add(d);
  }
  blocking::BlockCollection blocks = blocking::TokenBlocking().Build(c);
  // Every pair is a candidate, exactly once.
  EXPECT_EQ(blocks.DistinctPairs().size(), c.TotalComparisons());
  matching::TokenJaccardMatcher matcher;
  iterative::SwooshResult swoosh = iterative::RSwoosh(c, {&matcher, 0.9});
  EXPECT_EQ(swoosh.resolved.size(), 1u);  // All merge into one record.
}

TEST(RobustnessTest, DescriptionsWithoutValues) {
  model::EntityCollection c;
  c.Add(model::EntityDescription("u0"));
  c.Add(model::EntityDescription("u1"));
  model::EntityDescription with_value("u2");
  with_value.AddPair("p", "text");
  c.Add(with_value);
  for (const auto& blocker : AllBlockers()) {
    blocking::BlockCollection blocks = blocker->Build(c);
    for (const auto& pair : blocks.DistinctPairs()) {
      EXPECT_LT(pair.high, c.size()) << blocker->name();
    }
  }
  matching::TokenJaccardMatcher matcher;
  EXPECT_DOUBLE_EQ(matcher.Similarity(c[0], c[1]), 1.0);  // Both empty.
  EXPECT_DOUBLE_EQ(matcher.Similarity(c[0], c[2]), 0.0);
}

// ---------------------------------------------------------------------------
// Pathological strings
// ---------------------------------------------------------------------------

TEST(RobustnessTest, PathologicalStringsThroughTextStack) {
  std::string huge(5000, 'x');
  std::string spaces = "    ";
  std::string punct = "!!!###$$$";
  std::string high_bytes = "caf\xC3\xA9 na\xC3\xAFve";
  for (const std::string& value : {huge, spaces, punct, high_bytes}) {
    EXPECT_NO_FATAL_FAILURE({
      text::NormalizeAndTokenize(value);
      text::DistinctQGrams(value, 3);
      text::LevenshteinSimilarity(value, "short");
      text::JaroWinklerSimilarity(value, "short");
    });
  }
  // A 5000-char token against itself: still exact.
  EXPECT_DOUBLE_EQ(text::LevenshteinSimilarity(huge, huge), 1.0);
}

TEST(RobustnessTest, HugeValuesThroughBlockers) {
  model::EntityCollection c;
  for (int i = 0; i < 3; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("p", std::string(2000, static_cast<char>('a' + i)) + " tail");
    c.Add(d);
  }
  for (const auto& blocker : AllBlockers()) {
    EXPECT_NO_FATAL_FAILURE(blocker->Build(c)) << blocker->name();
  }
}

// ---------------------------------------------------------------------------
// Extreme configurations
// ---------------------------------------------------------------------------

TEST(RobustnessTest, PipelineWithBudgetOne) {
  model::GroundTruth truth;
  model::EntityCollection c = ::weber::testing::TinyDirty(&truth);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig config;
  config.blocker = &blocker;
  config.matcher = &matcher;
  config.budget = 1;
  core::PipelineResult result = core::RunPipeline(c, truth, config);
  EXPECT_EQ(result.comparisons, 1u);
}

TEST(RobustnessTest, MetaBlockingOnSingleBlock) {
  model::EntityCollection c = ::weber::testing::TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"only", {0, 1, 2}});
  for (auto pruning : metablocking::kAllPruningSchemes) {
    for (auto weights : metablocking::kAllWeightSchemes) {
      EXPECT_NO_FATAL_FAILURE(
          metablocking::MetaBlock(blocks, weights, pruning))
          << metablocking::ToString(weights) << "+"
          << metablocking::ToString(pruning);
    }
  }
}

// More chunks asked for than there are nodes: the node passes cut at most
// one chunk per node and return the serial result.
TEST(RobustnessTest, ParallelMetaBlockingMoreWorkersThanNodes) {
  model::EntityCollection c;
  for (const char* name : {"alice smith", "alice smyth", "bob smith"}) {
    model::EntityDescription d(std::string("http://kb/") + name, "person");
    d.AddPair("name", name);
    c.Add(d);
  }
  blocking::BlockCollection blocks = blocking::TokenBlocking().Build(c);
  for (auto pruning : metablocking::kAllPruningSchemes) {
    std::vector<model::IdPair> serial;
    {
      core::ScopedParallelism parallelism(1);
      serial = metablocking::MetaBlock(
          blocks, metablocking::WeightScheme::kJs, pruning);
    }
    core::ScopedParallelism parallelism(8);
    auto parallel = metablocking::MetaBlock(
        blocks, metablocking::WeightScheme::kJs, pruning);
    EXPECT_FALSE(parallel.empty()) << metablocking::ToString(pruning);
    EXPECT_EQ(parallel, serial) << metablocking::ToString(pruning);
  }
}

TEST(RobustnessTest, SimjoinThresholdEdges) {
  model::GroundTruth truth;
  model::EntityCollection c = ::weber::testing::TinyDirty(&truth);
  simjoin::TokenSetCollection sets = simjoin::TokenSetCollection::Build(c);
  // Threshold 0 is the documented degenerate: only overlapping pairs can
  // collide in the prefix index. They must still agree with NaiveJoin on
  // every overlapping pair at a tiny positive threshold.
  auto tiny_naive = simjoin::NaiveJoin(sets, 0.01);
  auto tiny_allpairs = simjoin::AllPairsJoin(sets, 0.01);
  EXPECT_EQ(tiny_allpairs.size(), tiny_naive.size());
  // Threshold > 1 clamps to 1.
  auto only_exact = simjoin::PPJoin(sets, 1.5);
  for (const auto& r : only_exact) {
    EXPECT_DOUBLE_EQ(r.similarity, 1.0);
  }
}

TEST(RobustnessTest, CollectiveWithSelfReferences) {
  model::EntityCollection c;
  model::EntityDescription a("u0", "t");
  a.AddPair("name", "self referencing");
  a.AddRelation("rel", "u0");  // Self-loop: must be ignored.
  model::EntityDescription b("u1", "t");
  b.AddPair("name", "self referencing");
  b.AddRelation("rel", "u1");
  c.Add(a);
  c.Add(b);
  matching::TokenJaccardMatcher matcher;
  iterative::CollectiveResult result = iterative::CollectiveResolve(
      c, {model::IdPair::Of(0, 1)}, matcher, {});
  EXPECT_EQ(result.matches.size(), 1u);
}

TEST(RobustnessTest, RelationsToUnknownUris) {
  model::EntityCollection c;
  model::EntityDescription a("u0", "t");
  a.AddPair("name", "dangling ref");
  a.AddRelation("rel", "http://nowhere/else");
  c.Add(a);
  model::EntityDescription b("u1", "t");
  b.AddPair("name", "dangling ref");
  c.Add(b);
  matching::TokenJaccardMatcher matcher;
  EXPECT_NO_FATAL_FAILURE(iterative::CollectiveResolve(
      c, {model::IdPair::Of(0, 1)}, matcher, {}));
  progressive::BenefitCostScheduler scheduler(c, {{0, 1, 0.5}}, {});
  EXPECT_TRUE(scheduler.NextPair().has_value());
}

TEST(RobustnessTest, CleanCleanWithEmptySecondSource) {
  model::EntityCollection c = model::EntityCollection::CleanClean(
      {model::EntityDescription("u0"), model::EntityDescription("u1")}, {});
  EXPECT_EQ(c.TotalComparisons(), 0u);
  EXPECT_TRUE(blocking::TokenBlocking().Build(c).empty());
}

TEST(RobustnessTest, FilterRatioEdges) {
  model::EntityCollection c = ::weber::testing::TinyDirty(nullptr);
  blocking::BlockCollection blocks = blocking::TokenBlocking().Build(c);
  // Ratio <= 0 still keeps at least one block per entity.
  blocking::BlockCollection filtered = blocking::FilterBlocks(blocks, 0.0);
  auto index = filtered.EntityToBlocks();
  size_t covered = 0;
  for (const auto& list : index) {
    if (!list.empty()) ++covered;
  }
  EXPECT_GT(covered, 0u);
}

}  // namespace
}  // namespace weber
