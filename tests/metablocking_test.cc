#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "blocking/qgrams_blocking.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "datagen/corpus_generator.h"
#include "eval/blocking_metrics.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/pruning_schemes.h"
#include "metablocking/weight_schemes.h"
#include "tests/pair_reference.h"
#include "tests/test_corpus.h"

namespace weber::metablocking {
namespace {

using ::weber::testing::TinyDirty;

blocking::BlockCollection TwoOverlappingBlocks(
    const model::EntityCollection& c) {
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"k1", {0, 1, 2}});
  blocks.AddBlock(blocking::Block{"k2", {0, 1, 3}});
  return blocks;
}

// The graph's edges in VisitEdges order.
std::vector<WeightedEdge> Edges(const BlockingGraph& graph) {
  std::vector<WeightedEdge> edges;
  graph.VisitEdges(
      [&edges](const WeightedEdge& edge) { edges.push_back(edge); });
  return edges;
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Graph construction and weights
// ---------------------------------------------------------------------------

TEST(BlockingGraphTest, OneEdgePerDistinctPair) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph(blocks, WeightScheme::kCbs);
  // Pairs: {0,1}x2 blocks, {0,2},{1,2},{0,3},{1,3} -> 5 distinct edges.
  EXPECT_EQ(Edges(graph).size(), 5u);
  EXPECT_EQ(graph.num_nodes(), c.size());
}

// The edge list (order, endpoints and weight bits) does not depend on the
// thread count, and its pairs are the distinct pairs in visit order.
TEST(BlockingGraphTest, EdgesBitEqualForAnyThreadCount) {
  datagen::CorpusConfig config;
  config.num_entities = 200;
  config.seed = 91;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::QGramsBlocking(3).Build(corpus.collection);
  std::vector<model::IdPair> reference =
      ::weber::testing::HashSetPairSequence(blocks);
  for (WeightScheme scheme : kAllWeightSchemes) {
    std::vector<std::vector<WeightedEdge>> runs;
    for (size_t threads : {1, 2, 8}) {
      core::ScopedParallelism parallelism(threads);
      runs.push_back(Edges(BlockingGraph(blocks, scheme)));
    }
    ASSERT_EQ(runs[0].size(), reference.size()) << ToString(scheme);
    for (size_t e = 0; e < reference.size(); ++e) {
      EXPECT_EQ(runs[0][e].pair(), reference[e]) << ToString(scheme);
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      ASSERT_EQ(runs[r].size(), runs[0].size()) << ToString(scheme);
      for (size_t e = 0; e < runs[0].size(); ++e) {
        EXPECT_EQ(runs[r][e].a, runs[0][e].a);
        EXPECT_EQ(runs[r][e].b, runs[0][e].b);
        EXPECT_TRUE(SameBits(runs[r][e].weight, runs[0][e].weight))
            << ToString(scheme) << " edge " << e;
      }
    }
  }
}

// The invariant node-centric pruning rests on: a node's neighbours come in
// the order of its edges in the VisitEdges list, with the same weight bits,
// on dirty and clean-clean collections.
TEST(BlockingGraphTest, NeighboursComeInEdgeListOrder) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.seed = 92;
  datagen::Corpus dirty = datagen::CorpusGenerator(config).GenerateDirty();
  config.schema_divergence = 0.3;
  datagen::Corpus clean = datagen::CorpusGenerator(config).GenerateCleanClean();
  for (const datagen::Corpus* corpus : {&dirty, &clean}) {
    blocking::BlockCollection blocks =
        blocking::TokenBlocking().Build(corpus->collection);
    for (WeightScheme scheme : kAllWeightSchemes) {
      BlockingGraph graph(blocks, scheme);
      std::vector<std::vector<WeightedEdge>> incident(graph.num_nodes());
      for (const WeightedEdge& edge : Edges(graph)) {
        incident[edge.a].push_back(edge);
        incident[edge.b].push_back(edge);
      }
      for (model::EntityId v = 0; v < graph.num_nodes(); ++v) {
        size_t i = 0;
        graph.ForEachNeighbour(0, v, [&](model::EntityId u, double w) {
          ASSERT_LT(i, incident[v].size()) << "node " << v;
          EXPECT_EQ(model::IdPair::Of(u, v), incident[v][i].pair());
          EXPECT_TRUE(SameBits(w, incident[v][i].weight))
              << ToString(scheme) << " node " << v;
          ++i;
        });
        EXPECT_EQ(i, incident[v].size()) << ToString(scheme) << " node " << v;
      }
    }
  }
}

TEST(BlockingGraphTest, CbsCountsCommonBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  for (const WeightedEdge& edge :
       Edges(BlockingGraph(blocks, WeightScheme::kCbs))) {
    if (edge.pair() == model::IdPair::Of(0, 1)) {
      EXPECT_DOUBLE_EQ(edge.weight, 2.0);
    } else {
      EXPECT_DOUBLE_EQ(edge.weight, 1.0);
    }
  }
}

TEST(BlockingGraphTest, JsIsNormalisedCbs) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  for (const WeightedEdge& edge :
       Edges(BlockingGraph(blocks, WeightScheme::kJs))) {
    if (edge.pair() == model::IdPair::Of(0, 1)) {
      EXPECT_DOUBLE_EQ(edge.weight, 1.0);  // 2 common / (2+2-2).
    } else {
      EXPECT_GT(edge.weight, 0.0);
      EXPECT_LT(edge.weight, 1.0);
    }
  }
}

TEST(BlockingGraphTest, ArcsFavoursSmallBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"small", {0, 1}});
  blocks.AddBlock(blocking::Block{"large", {2, 3, 4, 5}});
  double small_weight = 0.0;
  double large_weight = 0.0;
  for (const WeightedEdge& edge :
       Edges(BlockingGraph(blocks, WeightScheme::kArcs))) {
    if (edge.pair() == model::IdPair::Of(0, 1)) small_weight = edge.weight;
    if (edge.pair() == model::IdPair::Of(2, 3)) large_weight = edge.weight;
  }
  EXPECT_GT(small_weight, large_weight);
}

TEST(BlockingGraphTest, DuplicateEdgesWeighHigherUnderEverySCheme) {
  // On a real corpus, true duplicates should on average out-weigh
  // non-duplicates under every scheme.
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = 9;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  for (WeightScheme scheme : kAllWeightSchemes) {
    double matching = 0.0;
    double non_matching = 0.0;
    size_t num_matching = 0;
    size_t num_non_matching = 0;
    for (const WeightedEdge& edge : Edges(BlockingGraph(blocks, scheme))) {
      if (corpus.truth.IsMatch(edge.a, edge.b)) {
        matching += edge.weight;
        ++num_matching;
      } else {
        non_matching += edge.weight;
        ++num_non_matching;
      }
    }
    ASSERT_GT(num_matching, 0u) << ToString(scheme);
    ASSERT_GT(num_non_matching, 0u) << ToString(scheme);
    EXPECT_GT(matching / num_matching, non_matching / num_non_matching)
        << ToString(scheme);
  }
}

// The mean edge weight WEP cuts at, and each node's incident edges as the
// node-centric passes gather them.
TEST(BlockingGraphTest, MeanWeightAndNodeEdges) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph(blocks, WeightScheme::kCbs);
  double total = 0.0;
  std::vector<WeightedEdge> edges = Edges(graph);
  for (const WeightedEdge& edge : edges) total += edge.weight;
  EXPECT_NEAR(total / edges.size(), (2.0 + 1 + 1 + 1 + 1) / 5.0, 1e-12);
  std::vector<size_t> degree(graph.num_nodes(), 0);
  for (model::EntityId v = 0; v < graph.num_nodes(); ++v) {
    graph.ForEachNeighbour(0, v, [&](model::EntityId, double) { ++degree[v]; });
  }
  ASSERT_EQ(degree.size(), c.size());
  EXPECT_EQ(degree[0], 3u);  // Edges to 1, 2, 3.
  EXPECT_EQ(degree[4], 0u);
  EXPECT_EQ(degree[5], 0u);
}

TEST(WeightSchemeTest, ParseRoundTrip) {
  for (WeightScheme scheme : kAllWeightSchemes) {
    EXPECT_EQ(ParseWeightScheme(ToString(scheme)), scheme);
  }
  EXPECT_EQ(ParseWeightScheme("ecbs"), WeightScheme::kEcbs);
  EXPECT_FALSE(ParseWeightScheme("nope").has_value());
}

// ---------------------------------------------------------------------------
// Pruning schemes
// ---------------------------------------------------------------------------

TEST(PruningTest, WepKeepsAboveMeanOnly) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  auto kept = MetaBlock(blocks, WeightScheme::kCbs, PruningScheme::kWep);
  // Mean = 1.2; only {0,1} (weight 2) survives.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], model::IdPair::Of(0, 1));
}

TEST(PruningTest, CepRespectsGlobalBudget) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  auto kept = MetaBlock(blocks, WeightScheme::kCbs, PruningScheme::kCep);
  // Budget = total assignments / 2 = 6/2 = 3: {0,1} (weight 2) first, then
  // the weight-1 edges in (low, high) order.
  std::vector<model::IdPair> expected = {model::IdPair::Of(0, 1),
                                         model::IdPair::Of(0, 2),
                                         model::IdPair::Of(0, 3)};
  EXPECT_EQ(kept, expected);
}

TEST(PruningTest, WnpReciprocalIsSubsetOfUnion) {
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.seed = 13;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  auto union_kept =
      MetaBlock(blocks, WeightScheme::kJs, PruningScheme::kWnp, {false});
  auto reciprocal_kept =
      MetaBlock(blocks, WeightScheme::kJs, PruningScheme::kWnp, {true});
  EXPECT_LE(reciprocal_kept.size(), union_kept.size());
  model::IdPairSet union_set(union_kept.begin(), union_kept.end());
  for (const model::IdPair& pair : reciprocal_kept) {
    EXPECT_TRUE(union_set.contains(pair));
  }
}

TEST(PruningTest, CnpReciprocalIsSubsetOfUnion) {
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.seed = 14;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  auto union_kept =
      MetaBlock(blocks, WeightScheme::kArcs, PruningScheme::kCnp, {false});
  auto reciprocal_kept =
      MetaBlock(blocks, WeightScheme::kArcs, PruningScheme::kCnp, {true});
  EXPECT_LE(reciprocal_kept.size(), union_kept.size());
  model::IdPairSet union_set(union_kept.begin(), union_kept.end());
  for (const model::IdPair& pair : reciprocal_kept) {
    EXPECT_TRUE(union_set.contains(pair));
  }
}

// ---------------------------------------------------------------------------
// Pinned MetaBlock sequences
// ---------------------------------------------------------------------------

// FNV-1a over the (low, high) ids of a pair sequence, little-endian.
uint64_t SequenceDigest(const std::vector<model::IdPair>& pairs) {
  uint64_t hash = 1469598103934665603ull;
  for (const model::IdPair& pair : pairs) {
    for (uint32_t id : {pair.low, pair.high}) {
      for (int k = 0; k < 4; ++k) {
        hash ^= (id >> (8 * k)) & 0xff;
        hash *= 1099511628211ull;
      }
    }
  }
  return hash;
}

// A pinned MetaBlock output: its pair count and SequenceDigest.
struct PinnedSequence {
  size_t pairs;
  uint64_t digest;
};

// Recorded from the implementation that materialised the whole blocking
// graph (an edge list, a per-node edge index and per-edge votes): the
// node-centric passes must reproduce its output sequence exactly. Token
// blocking, no purging, over 150-entity seeded corpora. One row per weight
// and pruning scheme in kAllWeightSchemes x kAllPruningSchemes order:
// {plain, reciprocal}.
constexpr PinnedSequence kPinnedDirty[40] = {
    // CBS
    {10513, 0x413a5c0d462dabf4ull}, {10513, 0x413a5c0d462dabf4ull},  // WEP
    {1494, 0xdd962cf2eaee1c21ull}, {1494, 0xdd962cf2eaee1c21ull},  // CEP
    {10510, 0xb7fb2dcee050e099ull}, {9174, 0xc9ee96d799d4e242ull},  // WNP
    {2239, 0x9a6de731ebc28ae4ull}, {621, 0x62c704dc33b641d9ull},  // CNP
    // ECBS
    {10513, 0xcd311d34399504acull}, {10513, 0xcd311d34399504acull},  // WEP
    {1494, 0x5b4a39af302ba97dull}, {1494, 0x5b4a39af302ba97dull},  // CEP
    {10576, 0x9017687067591864ull}, {8761, 0x56680b66825e7f08ull},  // WNP
    {2249, 0x5e020012c67adb25ull}, {611, 0x7360e486a092f785ull},  // CNP
    // JS
    {10003, 0x5ad4a4531a00bf1full}, {10003, 0x5ad4a4531a00bf1full},  // WEP
    {1494, 0x5b09c4d18eeb0170ull}, {1494, 0x5b09c4d18eeb0170ull},  // CEP
    {10588, 0xa83f40e37a139337ull}, {7627, 0xd6b872ca4630288bull},  // WNP
    {2248, 0x57ba6a23fde462a9ull}, {612, 0x7db6f8bc6be109a5ull},  // CNP
    // EJS
    {5246, 0x389c1dd0cd302c98ull}, {5246, 0x389c1dd0cd302c98ull},  // WEP
    {1494, 0x9d55538e04e57518ull}, {1494, 0x9d55538e04e57518ull},  // CEP
    {12735, 0x2a4839f86f9ebb12ull}, {3244, 0xdba8b318d35a5d10ull},  // WNP
    {2414, 0x664e4542399f5d6dull}, {446, 0x5a1242b4ddb3984aull},  // CNP
    // ARCS
    {1855, 0x330cbc0e334e16d3ull}, {1855, 0x330cbc0e334e16d3ull},  // WEP
    {1494, 0x90d527ccc1129039ull}, {1494, 0x90d527ccc1129039ull},  // CEP
    {2430, 0x9d8daef5672fcb22ull}, {1533, 0x0d5592783a59daffull},  // WNP
    {1817, 0x5631a15b0e880646ull}, {1043, 0x2fc6aba112d0c1b0ull},  // CNP
};

constexpr PinnedSequence kPinnedCleanClean[40] = {
    // CBS
    {7539, 0x8b4826afb1425125ull}, {7539, 0x8b4826afb1425125ull},  // WEP
    {1659, 0xf2c4afe9d84709e8ull}, {1659, 0xf2c4afe9d84709e8ull},  // CEP
    {7527, 0xe7f68652b497d2deull}, {6297, 0x7c7071f66ef4bfbeull},  // WNP
    {2580, 0x39128eaeb4500fc7ull}, {720, 0x3f350ea8b122d0b0ull},  // CNP
    // ECBS
    {7539, 0xb49ac4fa63e9812dull}, {7539, 0xb49ac4fa63e9812dull},  // WEP
    {1659, 0x0d7a30ae731a70c1ull}, {1659, 0x0d7a30ae731a70c1ull},  // CEP
    {7520, 0x1b08d8f512e90ab6ull}, {6226, 0x7a808d704d949f08ull},  // WNP
    {2512, 0xec6d5b1d25fbaf40ull}, {788, 0x19aa76265aade68full},  // CNP
    // JS
    {6807, 0x2f87dd37759a3fb7ull}, {6807, 0x2f87dd37759a3fb7ull},  // WEP
    {1659, 0x6a6c6e004f52b717ull}, {1659, 0x6a6c6e004f52b717ull},  // CEP
    {7416, 0x8acd1968372c2196ull}, {5494, 0xb8ec9d4e0a4ef2dbull},  // WNP
    {2514, 0x2c63c84489124d84ull}, {786, 0x9bcc71268bfb12c7ull},  // CNP
    // EJS
    {5974, 0x333de465d5de66beull}, {5974, 0x333de465d5de66beull},  // WEP
    {1659, 0xfc0c1a73ee95e60cull}, {1659, 0xfc0c1a73ee95e60cull},  // CEP
    {7434, 0x3bac1c288677bec2ull}, {5272, 0xa3ca4d684531a1e5ull},  // WNP
    {2145, 0xa260d471eeffa4d1ull}, {1155, 0x91ce638c94b8f02dull},  // CNP
    // ARCS
    {1439, 0x36218b80f0b7e0e0ull}, {1439, 0x36218b80f0b7e0e0ull},  // WEP
    {1659, 0xf525b3f99c8f8d84ull}, {1659, 0xf525b3f99c8f8d84ull},  // CEP
    {2065, 0x35071e409d33ac98ull}, {1306, 0x1e7ac27c96f4676eull},  // WNP
    {2063, 0xbed374569de16477ull}, {1237, 0x2b3866ef8700d730ull},  // CNP
};

void ExpectPinned(const blocking::BlockCollection& blocks,
                  const PinnedSequence (&pinned)[40]) {
  size_t i = 0;
  for (WeightScheme weights : kAllWeightSchemes) {
    for (PruningScheme pruning : kAllPruningSchemes) {
      for (bool reciprocal : {false, true}) {
        const PinnedSequence& pin = pinned[i++];
        for (size_t threads : {1, 2, 8}) {
          core::ScopedParallelism parallelism(threads);
          std::vector<model::IdPair> pairs =
              MetaBlock(blocks, weights, pruning, {reciprocal});
          EXPECT_EQ(pairs.size(), pin.pairs)
              << ToString(weights) << "/" << ToString(pruning)
              << (reciprocal ? " reciprocal" : "") << " threads " << threads;
          EXPECT_EQ(SequenceDigest(pairs), pin.digest)
              << ToString(weights) << "/" << ToString(pruning)
              << (reciprocal ? " reciprocal" : "") << " threads " << threads;
        }
      }
    }
  }
}

datagen::CorpusConfig PinnedConfig() {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.seed = 2026;
  return config;
}

TEST(MetaBlockPinnedTest, DirtySequencesForEveryScheme) {
  datagen::Corpus corpus =
      datagen::CorpusGenerator(PinnedConfig()).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  ASSERT_EQ(blocks.CountDistinctPairs(), 24205u);
  ExpectPinned(blocks, kPinnedDirty);
}

TEST(MetaBlockPinnedTest, CleanCleanSequencesForEveryScheme) {
  datagen::CorpusConfig config = PinnedConfig();
  config.schema_divergence = 0.3;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(config).GenerateCleanClean();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  ASSERT_EQ(blocks.CountDistinctPairs(), 16497u);
  ExpectPinned(blocks, kPinnedCleanClean);
}

// Combinations once checked against a MapReduce twin of meta-blocking: the
// parallel node passes at `workers` threads return the sequential run's
// sequence exactly.
struct ParallelComboCase {
  WeightScheme weights;
  PruningScheme pruning;
  bool reciprocal;
  size_t workers;
};

class ParallelMetaBlockingCombos
    : public ::testing::TestWithParam<ParallelComboCase> {};

TEST_P(ParallelMetaBlockingCombos, MatchesSequentialPairs) {
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = 83;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);

  const ParallelComboCase& param = GetParam();
  PruneOptions options;
  options.reciprocal = param.reciprocal;
  std::vector<model::IdPair> sequential;
  {
    core::ScopedParallelism parallelism(1);
    sequential = MetaBlock(blocks, param.weights, param.pruning, options);
  }
  core::ScopedParallelism parallelism(param.workers);
  std::vector<model::IdPair> parallel =
      MetaBlock(blocks, param.weights, param.pruning, options);
  EXPECT_FALSE(parallel.empty());
  EXPECT_EQ(parallel, sequential);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ParallelMetaBlockingCombos,
    ::testing::Values(
        ParallelComboCase{WeightScheme::kCbs, PruningScheme::kWep, false, 4},
        ParallelComboCase{WeightScheme::kJs, PruningScheme::kCep, false, 4},
        ParallelComboCase{WeightScheme::kEcbs, PruningScheme::kWnp, false, 4},
        ParallelComboCase{WeightScheme::kEcbs, PruningScheme::kWnp, true, 3},
        ParallelComboCase{WeightScheme::kArcs, PruningScheme::kCnp, false, 2},
        ParallelComboCase{WeightScheme::kArcs, PruningScheme::kCnp, true, 8},
        ParallelComboCase{WeightScheme::kEjs, PruningScheme::kWnp, false, 4}),
    [](const ::testing::TestParamInfo<ParallelComboCase>& info) {
      return ToString(info.param.weights) + "_" +
             ToString(info.param.pruning) +
             (info.param.reciprocal ? "_recip" : "") + "_w" +
             std::to_string(info.param.workers);
    });

TEST(ParallelMetaBlockingTest, SingleWorkerWorks) {
  datagen::CorpusConfig config;
  config.num_entities = 50;
  config.seed = 84;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  std::vector<model::IdPair> serial;
  {
    core::ScopedParallelism parallelism(1);
    serial = MetaBlock(blocks, WeightScheme::kJs, PruningScheme::kWep);
  }
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(MetaBlock(blocks, WeightScheme::kJs, PruningScheme::kWep),
            serial);
}

TEST(ParallelMetaBlockingTest, EmptyBlocks) {
  model::EntityCollection c;
  blocking::BlockCollection blocks(&c);
  core::ScopedParallelism parallelism(4);
  for (WeightScheme weights : kAllWeightSchemes) {
    for (PruningScheme pruning : kAllPruningSchemes) {
      EXPECT_TRUE(MetaBlock(blocks, weights, pruning).empty())
          << ToString(weights) << "/" << ToString(pruning);
    }
  }
}

// Property sweep: every (weight, pruning) combination prunes comparisons
// substantially while keeping most matches on a generated corpus.
struct SchemeCombo {
  WeightScheme weights;
  PruningScheme pruning;
};

class MetaBlockingSweep : public ::testing::TestWithParam<SchemeCombo> {};

TEST_P(MetaBlockingSweep, PrunesComparisonsKeepsMatches) {
  datagen::CorpusConfig config;
  config.num_entities = 200;
  config.duplicate_fraction = 0.5;
  config.seed = 17;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  eval::BlockingQuality before = eval::EvaluateBlocks(blocks, corpus.truth);

  auto pairs = MetaBlock(blocks, GetParam().weights, GetParam().pruning);
  eval::BlockingQuality after =
      eval::EvaluatePairs(pairs, corpus.truth, corpus.collection);

  EXPECT_LT(after.comparisons, before.comparisons) << "no pruning happened";
  EXPECT_GE(after.PairCompleteness(), 0.5 * before.PairCompleteness());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MetaBlockingSweep,
    ::testing::Values(
        SchemeCombo{WeightScheme::kCbs, PruningScheme::kWep},
        SchemeCombo{WeightScheme::kCbs, PruningScheme::kCep},
        SchemeCombo{WeightScheme::kEcbs, PruningScheme::kWnp},
        SchemeCombo{WeightScheme::kJs, PruningScheme::kWep},
        SchemeCombo{WeightScheme::kJs, PruningScheme::kCnp},
        SchemeCombo{WeightScheme::kEjs, PruningScheme::kWnp},
        SchemeCombo{WeightScheme::kArcs, PruningScheme::kCep},
        SchemeCombo{WeightScheme::kArcs, PruningScheme::kCnp}),
    [](const ::testing::TestParamInfo<SchemeCombo>& info) {
      return ToString(info.param.weights) + "_" +
             ToString(info.param.pruning);
    });

TEST(PruningTest, EmptyGraph) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  EXPECT_TRUE(Edges(BlockingGraph(blocks, WeightScheme::kCbs)).empty());
  for (PruningScheme scheme : kAllPruningSchemes) {
    EXPECT_TRUE(MetaBlock(blocks, WeightScheme::kCbs, scheme).empty())
        << ToString(scheme);
  }
}

}  // namespace
}  // namespace weber::metablocking
