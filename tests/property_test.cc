// Property tests against independent reference implementations and
// random inputs: the fast/pruned algorithms must agree with their naive
// counterparts, and core invariants must hold over randomised corpora.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "blocking/block.h"
#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "metablocking/pruning_schemes.h"
#include "metablocking/weight_schemes.h"
#include "progressive/partition_hierarchy.h"
#include "progressive/progressive_sn.h"
#include "text/similarity.h"
#include "tests/pair_reference.h"
#include "util/random.h"

namespace weber {
namespace {

// ---------------------------------------------------------------------------
// Levenshtein vs full-matrix reference
// ---------------------------------------------------------------------------

size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> dp(a.size() + 1,
                                      std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) dp[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) dp[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] +
                               (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return dp[a.size()][b.size()];
}

class RandomStringsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStringsProperty, LevenshteinMatchesReference) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    std::string a = rng.NextToken(rng.NextBounded(14));
    std::string b = rng.NextToken(rng.NextBounded(14));
    EXPECT_EQ(text::LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
        << a << " vs " << b;
  }
}

TEST_P(RandomStringsProperty, CharacterSimilaritiesBoundedAndReflexive) {
  util::Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 60; ++trial) {
    std::string a = rng.NextToken(1 + rng.NextBounded(12));
    std::string b = rng.NextToken(1 + rng.NextBounded(12));
    for (auto fn : {text::LevenshteinSimilarity, text::JaroSimilarity}) {
      double sim = fn(a, b);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0);
      EXPECT_DOUBLE_EQ(fn(a, a), 1.0);
      EXPECT_DOUBLE_EQ(fn(a, b), fn(b, a)) << a << " " << b;
    }
    double jw = text::JaroWinklerSimilarity(a, b);
    EXPECT_GE(jw, text::JaroSimilarity(a, b) - 1e-12);
    EXPECT_LE(jw, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStringsProperty,
                         ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Comparison propagation vs hash-set reference over random blocks
// ---------------------------------------------------------------------------

class RandomBlocksProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBlocksProperty, LeCoBIEqualsHashSetDedup) {
  util::Rng rng(GetParam());
  model::EntityCollection c;
  for (int i = 0; i < 40; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("p", "x");
    c.Add(d);
  }
  blocking::BlockCollection blocks(&c);
  size_t num_blocks = 5 + rng.NextBounded(15);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocking::Block block;
    block.key = "b" + std::to_string(b);
    size_t size = 2 + rng.NextBounded(8);
    for (size_t k = 0; k < size; ++k) {
      block.entities.push_back(
          static_cast<model::EntityId>(rng.NextBounded(40)));
    }
    blocks.AddBlock(std::move(block));
  }
  // The LeCoBI walk emits the hash-set walk's exact sequence, pairs never
  // repeat, and every block range split visits the same sequence.
  std::vector<model::IdPair> reference =
      ::weber::testing::HashSetPairSequence(blocks);
  std::vector<model::IdPair> via_lecobi =
      ::weber::testing::VisitedPairSequence(blocks);
  EXPECT_EQ(via_lecobi, reference);
  model::IdPairSet distinct;
  for (const model::IdPair& pair : via_lecobi) {
    EXPECT_TRUE(distinct.insert(model::IdPair::Of(pair.low, pair.high)).second);
  }
  EXPECT_EQ(distinct, blocks.DistinctPairs());
  std::vector<std::vector<uint32_t>> index = blocks.EntityToBlocks();
  size_t split = rng.NextBounded(blocks.NumBlocks() + 1);
  std::vector<model::IdPair> joined;
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, split},
                            std::pair<size_t, size_t>{split,
                                                      blocks.NumBlocks()}}) {
    blocks.VisitDistinctPairs(index, begin, end,
                              [&joined](model::EntityId a, model::EntityId b) {
                                joined.push_back({a, b});
                              });
  }
  EXPECT_EQ(joined, reference);
}

TEST_P(RandomBlocksProperty, MetaBlockingReciprocalSubsetInvariant) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.seed = GetParam() * 1000;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  for (auto weights : metablocking::kAllWeightSchemes) {
    for (auto pruning : {metablocking::PruningScheme::kWnp,
                         metablocking::PruningScheme::kCnp}) {
      auto union_kept =
          metablocking::MetaBlock(blocks, weights, pruning, {false});
      auto reciprocal_kept =
          metablocking::MetaBlock(blocks, weights, pruning, {true});
      model::IdPairSet union_set(union_kept.begin(), union_kept.end());
      for (const model::IdPair& pair : reciprocal_kept) {
        EXPECT_TRUE(union_set.contains(pair))
            << metablocking::ToString(weights) << "+"
            << metablocking::ToString(pruning);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBlocksProperty,
                         ::testing::Values(11, 12, 13),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Progressive schedules: completeness over generated corpora
// ---------------------------------------------------------------------------

class ScheduleCompleteness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleCompleteness, SnAndHierarchyCoverAllPairsOnce) {
  datagen::CorpusConfig config;
  config.num_entities = 35;  // Small: full coverage is quadratic.
  config.duplicate_fraction = 0.4;
  config.seed = GetParam();
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  uint64_t total = corpus.collection.TotalComparisons();
  {
    progressive::ProgressiveSnScheduler sn(corpus.collection);
    model::IdPairSet seen;
    while (auto pair = sn.NextPair()) {
      EXPECT_TRUE(seen.insert(*pair).second);
    }
    EXPECT_EQ(seen.size(), total);
  }
  {
    progressive::PartitionHierarchyScheduler hierarchy(corpus.collection);
    model::IdPairSet seen;
    while (auto pair = hierarchy.NextPair()) {
      EXPECT_TRUE(seen.insert(*pair).second);
    }
    EXPECT_EQ(seen.size(), total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleCompleteness,
                         ::testing::Values(21, 22, 23, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Datagen determinism across corpus kinds
// ---------------------------------------------------------------------------

TEST(DatagenDeterminism, CleanCleanAndRelationalStable) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.schema_divergence = 0.5;
  config.seed = 31;
  auto a = datagen::CorpusGenerator(config).GenerateCleanClean();
  auto b = datagen::CorpusGenerator(config).GenerateCleanClean();
  ASSERT_EQ(a.collection.size(), b.collection.size());
  for (model::EntityId i = 0; i < a.collection.size(); ++i) {
    EXPECT_EQ(a.collection[i], b.collection[i]);
  }

  datagen::RelationalConfig relational;
  relational.tail.num_entities = 15;
  relational.head.num_entities = 20;
  relational.seed = 33;
  auto r1 = datagen::RelationalCorpusGenerator(relational).Generate();
  auto r2 = datagen::RelationalCorpusGenerator(relational).Generate();
  ASSERT_EQ(r1.collection.size(), r2.collection.size());
  for (model::EntityId i = 0; i < r1.collection.size(); ++i) {
    EXPECT_EQ(r1.collection[i], r2.collection[i]);
  }
  EXPECT_EQ(r1.truth.NumMatches(), r2.truth.NumMatches());
}

}  // namespace
}  // namespace weber
