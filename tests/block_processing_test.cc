#include <gtest/gtest.h>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "eval/blocking_metrics.h"
#include "tests/pair_reference.h"
#include "tests/test_corpus.h"

namespace weber::blocking {
namespace {

using ::weber::testing::TinyDirty;

BlockCollection ThreeBlocks(const model::EntityCollection& c) {
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"small", {0, 1}});
  blocks.AddBlock(Block{"medium", {0, 1, 2}});
  blocks.AddBlock(Block{"large", {0, 1, 2, 3, 4, 5}});
  return blocks;
}

// ---------------------------------------------------------------------------
// Purging
// ---------------------------------------------------------------------------

TEST(BlockPurgingTest, RemovesBlocksAboveThreshold) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks = ThreeBlocks(c);
  size_t removed = PurgeBlocksAbove(blocks, 3);  // large has 15 comparisons.
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(blocks.NumBlocks(), 2u);
}

TEST(BlockPurgingTest, ThresholdKeepsEverythingWhenHigh) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks = ThreeBlocks(c);
  EXPECT_EQ(PurgeBlocksAbove(blocks, 1000), 0u);
  EXPECT_EQ(blocks.NumBlocks(), 3u);
}

TEST(BlockPurgingTest, AutoPurgeDropsStopwordBlock) {
  // Many tiny discriminative blocks plus one huge stop-word block.
  model::EntityCollection c;
  for (int i = 0; i < 40; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("name", "the name" + std::to_string(i / 2));
    c.Add(d);
  }
  BlockCollection blocks = TokenBlocking().Build(c);
  uint64_t before = blocks.TotalComparisonsWithRedundancy();
  uint64_t threshold = AutoPurgeBlocks(blocks);
  EXPECT_GT(threshold, 0u);
  EXPECT_LT(blocks.TotalComparisonsWithRedundancy(), before);
  // The "the" block (all 40 entities) must be gone; the pair blocks stay.
  for (const Block& block : blocks.blocks()) {
    EXPECT_LT(block.size(), 40u);
  }
  EXPECT_GT(blocks.NumBlocks(), 0u);
}

TEST(BlockPurgingTest, AutoPurgeNoopOnUniformBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"a", {0, 1}});
  blocks.AddBlock(Block{"b", {2, 3}});
  blocks.AddBlock(Block{"c", {4, 5}});
  EXPECT_EQ(AutoPurgeBlocks(blocks), 0u);
  EXPECT_EQ(blocks.NumBlocks(), 3u);
}

TEST(BlockPurgingTest, AutoPurgeEmptyCollection) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  EXPECT_EQ(AutoPurgeBlocks(blocks), 0u);
}

// ---------------------------------------------------------------------------
// Filtering
// ---------------------------------------------------------------------------

TEST(BlockFilteringTest, RatioOneIsIdentity) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks = ThreeBlocks(c);
  BlockCollection filtered = FilterBlocks(blocks, 1.0);
  EXPECT_EQ(filtered.NumBlocks(), blocks.NumBlocks());
  EXPECT_EQ(filtered.TotalComparisonsWithRedundancy(),
            blocks.TotalComparisonsWithRedundancy());
}

TEST(BlockFilteringTest, KeepsSmallestBlocksPerEntity) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks = ThreeBlocks(c);
  // Ratio 0.34: entity 0 (in 3 blocks) keeps ceil(0.34*3)=2 smallest.
  BlockCollection filtered = FilterBlocks(blocks, 0.34);
  uint64_t total = 0;
  for (const Block& block : filtered.blocks()) {
    if (block.key == "large") {
      // Entities 0,1,2 dropped out of the large block; 3,4,5 keep it as
      // their only block.
      EXPECT_EQ(block.size(), 3u);
    }
    total += block.size();
  }
  EXPECT_LT(total, 11u);
}

TEST(BlockFilteringTest, ReducesComparisonsButKeepsMostMatches) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.duplicate_fraction = 0.5;
  config.seed = 21;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  model::GroundTruth& truth = corpus.truth;
  BlockCollection blocks = TokenBlocking().Build(corpus.collection);
  BlockCollection filtered = FilterBlocks(blocks, 0.5);
  eval::BlockingQuality before = eval::EvaluateBlocks(blocks, truth);
  eval::BlockingQuality after = eval::EvaluateBlocks(filtered, truth);
  EXPECT_LT(after.comparisons, before.comparisons);
  EXPECT_GE(after.PairCompleteness(), 0.8 * before.PairCompleteness());
}

TEST(BlockFilteringTest, EmptyInput) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  EXPECT_TRUE(FilterBlocks(blocks, 0.5).empty());
}

// ---------------------------------------------------------------------------
// Comparison propagation
// ---------------------------------------------------------------------------

// Comparison propagation is BlockCollection::VisitDistinctPairs itself: a
// pair is visited only in its least common block (LeCoBI).

TEST(ComparisonPropagationTest, EachPairVisitedExactlyOnce) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k1", {0, 1, 2}});
  blocks.AddBlock(Block{"k2", {1, 2, 3}});
  blocks.AddBlock(Block{"k3", {0, 3}});
  model::IdPairSet seen;
  blocks.VisitDistinctPairs([&seen](model::EntityId a, model::EntityId b) {
    EXPECT_TRUE(seen.insert(model::IdPair::Of(a, b)).second)
        << "pair visited twice: " << a << "," << b;
  });
  EXPECT_EQ(seen, (model::IdPairSet{{0, 1}, {0, 2}, {1, 2}, {1, 3},
                                    {2, 3}, {0, 3}}));
}

// Pairs visited when walking only the blocks [begin, end).
std::vector<model::IdPair> PairsInRange(const BlockCollection& blocks,
                                        size_t begin, size_t end) {
  std::vector<model::IdPair> pairs;
  blocks.VisitDistinctPairs(
      blocks.EntityToBlocks(), begin, end,
      [&pairs](model::EntityId a, model::EntityId b) {
        pairs.push_back(model::IdPair::Of(a, b));
      });
  return pairs;
}

TEST(ComparisonPropagationTest, LeastCommonBlockIndexSemantics) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k1", {0, 1}});
  blocks.AddBlock(Block{"k2", {0, 1}});
  // (0, 1) belongs to block 0, its least common block, and not block 1.
  EXPECT_EQ(PairsInRange(blocks, 0, 1),
            (std::vector<model::IdPair>{{0, 1}}));
  EXPECT_TRUE(PairsInRange(blocks, 1, 2).empty());
}

TEST(ComparisonPropagationTest, CountMatchesDistinctPairs) {
  datagen::CorpusConfig config;
  config.num_entities = 80;
  config.seed = 33;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  BlockCollection blocks = TokenBlocking().Build(corpus.collection);
  std::vector<model::IdPair> reference =
      ::weber::testing::HashSetPairSequence(blocks);
  EXPECT_EQ(blocks.CountDistinctPairs(), reference.size());
  EXPECT_EQ(blocks.DistinctPairList(blocks.EntityToBlocks()).size(),
            reference.size());
  auto even = [](model::EntityId a, model::EntityId b) {
    return (a + b) % 2 == 0;
  };
  uint64_t even_pairs = 0;
  for (const model::IdPair& pair : reference) {
    if (even(pair.low, pair.high)) ++even_pairs;
  }
  BlockCollection::PairCounts counts = blocks.CountDistinctPairs(even);
  EXPECT_EQ(counts.pairs, reference.size());
  EXPECT_EQ(counts.accepted, even_pairs);
}

TEST(ComparisonPropagationTest, NoCommonBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k1", {0, 1}});
  blocks.AddBlock(Block{"k2", {2, 3}});
  // (0, 2) shares no block, so neither block's range visits it.
  EXPECT_EQ(PairsInRange(blocks, 0, 1),
            (std::vector<model::IdPair>{{0, 1}}));
  EXPECT_EQ(PairsInRange(blocks, 1, 2),
            (std::vector<model::IdPair>{{2, 3}}));
}

TEST(ComparisonPropagationTest, BalancedRangesPartitionTheBlocks) {
  datagen::CorpusConfig config;
  config.num_entities = 80;
  config.seed = 33;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  BlockCollection blocks = TokenBlocking().Build(corpus.collection);
  std::vector<model::IdPair> whole =
      PairsInRange(blocks, 0, blocks.NumBlocks());
  std::vector<std::vector<uint32_t>> index = blocks.EntityToBlocks();
  for (size_t parts : {1, 2, 3, 8, 1000}) {
    std::vector<size_t> bounds = blocks.BalancedRanges(index, parts);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_LE(bounds.size() - 1, parts);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), blocks.NumBlocks());
    std::vector<model::IdPair> joined;
    for (size_t r = 0; r + 1 < bounds.size(); ++r) {
      EXPECT_LT(bounds[r], bounds[r + 1]) << "empty range " << r;
      std::vector<model::IdPair> part =
          PairsInRange(blocks, bounds[r], bounds[r + 1]);
      joined.insert(joined.end(), part.begin(), part.end());
    }
    EXPECT_EQ(joined, whole) << parts << " parts";
  }
  BlockCollection empty(&corpus.collection);
  EXPECT_EQ(empty.BalancedRanges(empty.EntityToBlocks(), 4),
            std::vector<size_t>{0});
}

// Blocks suggesting equal comparisons cost more the later they come: each
// pair merges longer block-list prefixes. Four copies of one 3-id block
// cost 3, 9, 15 and 21 (pairs + 2 x the ids' prefix lengths), so the
// halfway cut falls after the third block, not the second.
TEST(ComparisonPropagationTest, BalancedRangesWeighBlockListPrefixes) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  for (const char* key : {"k1", "k2", "k3", "k4"}) {
    blocks.AddBlock(Block{key, {0, 1, 2}});
  }
  EXPECT_EQ(blocks.BalancedRanges(blocks.EntityToBlocks(), 2),
            (std::vector<size_t>{0, 3, 4}));
}

}  // namespace
}  // namespace weber::blocking
