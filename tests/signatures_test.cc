// Property tests for the signature-based comparison engine: every
// prepared scorer must be bit-equal to its string twin over random
// corpora and thread counts, on one store and with each pair split across
// two, its counters must stay pinned, the shared intersection kernels
// must agree with a naive reference, and the algorithms that default to
// signatures (pipeline, Swoosh, iterative blocking, incremental) must
// produce identical results with the engine on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "datagen/corpus_generator.h"
#include "incremental/resolver.h"
#include "iterative/iterative_blocking.h"
#include "iterative/rswoosh.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "model/entity.h"
#include "obs/metrics.h"
#include "tests/test_corpus.h"
#include "util/intersect.h"
#include "util/random.h"

namespace weber::matching {
namespace {

using ::weber::testing::TinyDirty;

// ---------------------------------------------------------------------------
// Intersection kernels vs naive reference
// ---------------------------------------------------------------------------

std::vector<uint32_t> RandomSortedSet(util::Rng& rng, size_t max_size,
                                      uint32_t universe) {
  std::vector<uint32_t> out;
  size_t n = rng.NextBounded(max_size + 1);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(IntersectKernelTest, MergeAndGallopAgreeWithReference) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Alternate balanced and heavily skewed shapes so both the merge and
    // the galloping paths are exercised.
    bool skewed = trial % 2 == 0;
    std::vector<uint32_t> a = RandomSortedSet(rng, skewed ? 4 : 40, 120);
    std::vector<uint32_t> b = RandomSortedSet(rng, skewed ? 90 : 40, 120);
    size_t expected = ReferenceIntersect(a, b);
    std::span<const uint32_t> sa(a.data(), a.size());
    std::span<const uint32_t> sb(b.data(), b.size());
    EXPECT_EQ(util::MergeIntersectSize(sa, sb), expected);
    EXPECT_EQ(util::SortedIntersectSize(sa, sb), expected);
    EXPECT_EQ(util::SortedIntersectSize(sb, sa), expected);
    if (!a.empty()) {
      EXPECT_EQ(util::GallopIntersectSize(sa, sb), expected);
    }
  }
}

TEST(IntersectKernelTest, AtLeastMatchesThresholdedSize) {
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint32_t> a = RandomSortedSet(rng, trial % 2 ? 50 : 3, 80);
    std::vector<uint32_t> b = RandomSortedSet(rng, 50, 80);
    size_t expected = ReferenceIntersect(a, b);
    std::span<const uint32_t> sa(a.data(), a.size());
    std::span<const uint32_t> sb(b.data(), b.size());
    for (size_t required = 0; required <= expected + 2; ++required) {
      EXPECT_EQ(util::SortedIntersectAtLeast(sa, sb, required),
                expected >= required)
          << "required=" << required << " expected=" << expected;
    }
  }
}

// ---------------------------------------------------------------------------
// Prepared matchers bit-equal to their string twins
// ---------------------------------------------------------------------------

// Exhaustively compares a prepared scorer against `matcher` over every
// pair of the collection: exact (bitwise) similarity equality plus verdict
// equality at a spread of thresholds, including the engine's early-exit
// filters' edge values. `similarity(a, b)` and `matches(a, b, t)` score
// collection ids through the scorer under test.
template <typename Similarity, typename Matches>
void ExpectBitEqualPairs(const model::EntityCollection& collection,
                         const Matcher& matcher, const Similarity& similarity,
                         const Matches& matches) {
  const double thresholds[] = {0.0, 0.25, 0.5,
                               0.75, 1.0, std::nextafter(1.0, 2.0),
                               std::numeric_limits<double>::quiet_NaN()};
  for (model::EntityId a = 0; a < collection.size(); ++a) {
    for (model::EntityId b = a; b < collection.size(); ++b) {
      double expected = matcher.Similarity(collection[a], collection[b]);
      double got = similarity(a, b);
      ASSERT_EQ(expected, got)
          << matcher.name() << " pair (" << a << "," << b << ")";
      for (double t : thresholds) {
        ASSERT_EQ(expected >= t, matches(a, b, t))
            << matcher.name() << " pair (" << a << "," << b
            << ") threshold " << t;
      }
    }
  }
}

void ExpectBitEqual(const model::EntityCollection& collection,
                    const Matcher& matcher, const PreparedMatcher& prepared) {
  ExpectBitEqualPairs(
      collection, matcher,
      [&](model::EntityId a, model::EntityId b) {
        return prepared.Similarity(a, b);
      },
      [&](model::EntityId a, model::EntityId b, double t) {
        return prepared.Matches(a, b, t);
      });
}

// A matcher type the signature engine does not know: composites must
// bridge it through the string path.
class UnpreparedMatcher : public Matcher {
 public:
  double Similarity(const model::EntityDescription& a,
                    const model::EntityDescription& b) const override {
    return inner_.Similarity(a, b);
  }
  std::string name() const override { return "unprepared-overlap"; }

 private:
  TokenOverlapMatcher inner_;
};

// Every matcher shape the engine prepares, over one collection: each
// matcher type, each composite combine, a composite bridging an
// unpreparable component, and a composite with an oracle component.
struct MatcherZoo {
  MatcherZoo(const model::EntityCollection& collection,
             const model::GroundTruth& truth)
      : tfidf(collection),
        oracle(collection, truth, /*error_rate=*/0.1, /*seed=*/5) {}
  MatcherZoo(const MatcherZoo&) = delete;
  MatcherZoo& operator=(const MatcherZoo&) = delete;

  std::vector<const Matcher*> All() const {
    return {&jaccard, &overlap, &tfidf,   &weighted, &average,
            &maximum, &minimum, &bridged, &oracle_max, &oracle};
  }

  TokenJaccardMatcher jaccard;
  TokenOverlapMatcher overlap;
  TfIdfCosineMatcher tfidf;
  WeightedAttributeMatcher weighted{{{"attr0", 2.0, true},
                                     {"attr1", 1.0, false},
                                     {"no_such_attribute", 0.5, true}}};
  CompositeMatcher average{{&jaccard, &weighted},
                           {0.7, 0.3},
                           CompositeMatcher::Combine::kWeightedAverage};
  CompositeMatcher maximum{
      {&jaccard, &overlap}, {}, CompositeMatcher::Combine::kMax};
  CompositeMatcher minimum{
      {&jaccard, &overlap}, {}, CompositeMatcher::Combine::kMin};
  UnpreparedMatcher unprepared;
  CompositeMatcher bridged{{&unprepared, &jaccard},
                           {0.4, 0.6},
                           CompositeMatcher::Combine::kWeightedAverage};
  OracleMatcher oracle;
  CompositeMatcher oracle_max{
      {&jaccard, &oracle}, {}, CompositeMatcher::Combine::kMax};
};

// Every reachable dispatch level must reproduce the string path
// bit-for-bit: the SIMD kernels count exactly, so switching them can
// never move a similarity or flip a verdict.
std::vector<util::IntersectKernel> ReachableKernels() {
  std::vector<util::IntersectKernel> kernels = {util::IntersectKernel::kScalar};
  for (util::IntersectKernel kernel :
       {util::IntersectKernel::kSse4, util::IntersectKernel::kAvx2}) {
    if (util::SetIntersectKernel(kernel)) kernels.push_back(kernel);
  }
  util::ResetIntersectKernel();
  return kernels;
}

// Runs the bit-equality check for every prepared matcher type over one
// collection, under the given parallelism (the store build is parallel;
// its arenas must not depend on the thread count).
void CheckAllMatchers(const model::EntityCollection& collection,
                      const model::GroundTruth& truth, size_t threads) {
  core::ScopedParallelism parallelism(threads);
  MatcherZoo zoo(collection, truth);
  std::vector<util::IntersectKernel> kernels = ReachableKernels();
  for (const Matcher* matcher : zoo.All()) {
    ASSERT_TRUE(Preparable(*matcher)) << matcher->name();
    SignatureStore store =
        SignatureStore::Build(collection, OptionsFor(*matcher));
    std::unique_ptr<PreparedMatcher> prepared = Prepare(*matcher, store);
    ASSERT_NE(prepared, nullptr) << matcher->name();
    for (util::IntersectKernel kernel : kernels) {
      ASSERT_TRUE(util::SetIntersectKernel(kernel));
      ExpectBitEqual(collection, *matcher, *prepared);
    }
    util::ResetIntersectKernel();
  }
}

// A collection split across two SignatureStores that share one
// vocabulary, the way the sharded resolver lays out entity shards:
// collection id i lives in store i % 2 at row i / 2. Signatures are
// copied out of one reference Build and absorbed verbatim; the last id is
// left without a signature so its pairs take the string fallback.
struct SplitStores {
  SplitStores(const model::EntityCollection& collection,
              const SignatureOptions& options)
      : stores{SignatureStore(options), SignatureStore(options)} {
    SignatureStore reference = SignatureStore::Build(collection, options);
    for (model::EntityId id = 0; id + 1 < collection.size(); ++id) {
      InternedSignature signature;
      signature.token_ids = reference.TokenSet(id);
      if (reference.has_tfidf(id)) {
        for (const TfIdfTerm& term : reference.tfidf(id)) {
          signature.tfidf.entries.emplace_back(term.token, term.weight);
        }
      }
      if (reference.has_attributes(id)) {
        for (const SignatureStore::AttributeSlot& slot :
             reference.attribute_slots(id)) {
          InternedSignature::Attribute& attr =
              signature.attributes.emplace_back();
          if (slot.value_index == SignatureStore::kNoValue) continue;
          attr.present = true;
          attr.value = reference.value(slot.value_index);
          auto tokens = reference.slot_tokens(slot);
          attr.token_ids.assign(tokens.begin(), tokens.end());
        }
      }
      stores[id % 2].AbsorbPrepared(id / 2, std::move(signature));
    }
    for (size_t k = 0; k < 2; ++k) {
      stores[k].SetDescriptionProvider(
          [&collection, k](model::EntityId row, model::EntityDescription*)
              -> const model::EntityDescription* {
            size_t id = size_t{row} * 2 + k;
            return id < collection.size() ? &collection[id] : nullptr;
          });
    }
  }

  const SignatureStore& store(model::EntityId id) const {
    return stores[id % 2];
  }
  static model::EntityId row(model::EntityId id) { return id / 2; }

  SignatureStore stores[2];
};

void CheckAllCrossMatchers(const model::EntityCollection& collection,
                           const model::GroundTruth& truth) {
  MatcherZoo zoo(collection, truth);
  std::vector<util::IntersectKernel> kernels = ReachableKernels();
  for (const Matcher* matcher : zoo.All()) {
    if (matcher == &zoo.oracle) continue;
    SignatureOptions options = OptionsFor(*matcher);
    SplitStores split(collection, options);
    std::unique_ptr<CrossStoreMatcher> cross = PrepareCross(*matcher, options);
    ASSERT_NE(cross, nullptr) << matcher->name();
    for (util::IntersectKernel kernel : kernels) {
      ASSERT_TRUE(util::SetIntersectKernel(kernel));
      ExpectBitEqualPairs(
          collection, *matcher,
          [&](model::EntityId a, model::EntityId b) {
            return cross->Similarity(split.store(a), split.row(a),
                                     split.store(b), split.row(b));
          },
          [&](model::EntityId a, model::EntityId b, double t) {
            return cross->Matches(split.store(a), split.row(a),
                                  split.store(b), split.row(b), t);
          });
    }
    util::ResetIntersectKernel();
  }
}

class SignatureProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureProperty, PreparedMatchersBitEqualOnDirtyCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.6;
  config.somehow_similar_fraction = 0.4;
  config.seed = GetParam();
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    CheckAllMatchers(corpus.collection, corpus.truth, threads);
  }
}

TEST_P(SignatureProperty, PreparedMatchersBitEqualOnCleanCleanCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.5;
  config.schema_divergence = 0.3;
  config.seed = GetParam() ^ 0xC1EA;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(config).GenerateCleanClean();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    CheckAllMatchers(corpus.collection, corpus.truth, threads);
  }
}

TEST_P(SignatureProperty, CrossStoreMatchersBitEqualOnDirtyCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.6;
  config.somehow_similar_fraction = 0.4;
  config.seed = GetParam();
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  CheckAllCrossMatchers(corpus.collection, corpus.truth);
}

TEST_P(SignatureProperty, CrossStoreMatchersBitEqualOnCleanCleanCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.5;
  config.schema_divergence = 0.3;
  config.seed = GetParam() ^ 0xC1EA;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(config).GenerateCleanClean();
  CheckAllCrossMatchers(corpus.collection, corpus.truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureProperty,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(SignatureStoreTest, VocabularyIdenticalForAnyThreadCount) {
  datagen::CorpusConfig config;
  config.num_entities = 50;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  std::vector<std::vector<uint32_t>> serial_tokens;
  {
    core::ScopedParallelism one(1);
    SignatureStore store = SignatureStore::Build(corpus.collection);
    for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
      serial_tokens.push_back(store.TokenSet(id));
    }
  }
  for (size_t threads : {size_t{2}, size_t{8}}) {
    core::ScopedParallelism parallelism(threads);
    SignatureStore store = SignatureStore::Build(corpus.collection);
    for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
      ASSERT_EQ(serial_tokens[id], store.TokenSet(id))
          << "entity " << id << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST(SignatureEdgeTest, EmptyDescriptionsScoreLikeStringPath) {
  // Jaccard(∅, ∅) = 1 (empty union), overlap(∅, ∅) = 1 (equal sizes) and
  // overlap(∅, x) = 0; the prepared filters must honour those exactly.
  model::EntityCollection c;
  c.Add(model::EntityDescription("u/empty1"));
  c.Add(model::EntityDescription("u/empty2"));
  model::EntityDescription full("u/full");
  full.AddPair("p", "alpha beta");
  c.Add(full);

  TokenJaccardMatcher jaccard;
  TokenOverlapMatcher overlap;
  for (const Matcher* matcher :
       std::vector<const Matcher*>{&jaccard, &overlap}) {
    SignatureStore store =
        SignatureStore::Build(c, OptionsFor(*matcher));
    std::unique_ptr<PreparedMatcher> prepared = Prepare(*matcher, store);
    ASSERT_NE(prepared, nullptr);
    ExpectBitEqual(c, *matcher, *prepared);
    EXPECT_EQ(prepared->Similarity(0, 1), 1.0) << matcher->name();
    EXPECT_EQ(prepared->Similarity(0, 2), 0.0) << matcher->name();
  }
}

TEST(SignatureEdgeTest, MergedSlotsStayBitEqualAfterUnions) {
  // Chain a few AppendMerged calls and verify the merged slots score
  // exactly like the string-path MergeFrom descriptions.
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  TokenJaccardMatcher jaccard;
  SignatureStore store = SignatureStore::Build(c, OptionsFor(jaccard));
  std::unique_ptr<PreparedMatcher> prepared = Prepare(jaccard, store);
  ASSERT_NE(prepared, nullptr);

  model::EntityDescription merged01 = c[0];
  merged01.MergeFrom(c[1]);
  model::EntityId sig01 = store.AppendMerged(0, 1);
  model::EntityDescription merged01_23 = merged01;
  model::EntityDescription merged23 = c[2];
  merged23.MergeFrom(c[3]);
  model::EntityId sig23 = store.AppendMerged(2, 3);
  merged01_23.MergeFrom(merged23);
  model::EntityId sig0123 = store.AppendMerged(sig01, sig23);

  for (model::EntityId other = 0; other < c.size(); ++other) {
    EXPECT_EQ(jaccard.Similarity(merged01, c[other]),
              prepared->Similarity(sig01, other));
    EXPECT_EQ(jaccard.Similarity(merged01_23, c[other]),
              prepared->Similarity(sig0123, other));
  }
  EXPECT_EQ(jaccard.Similarity(merged01, merged23),
            prepared->Similarity(sig01, sig23));

  // Releasing a constituent must not disturb the merged slot.
  store.Release(0);
  store.Release(1);
  EXPECT_FALSE(store.contains(0));
  EXPECT_TRUE(store.contains(sig01));
  EXPECT_EQ(jaccard.Similarity(merged01, merged23),
            prepared->Similarity(sig01, sig23));
  EXPECT_GT(store.released_bytes(), 0u);
}

TEST(SignatureEdgeTest, PrepareCrossRejectsUnpartitionableMatchers) {
  // The oracle's canonical-id table is bound to one collection, and
  // vectors from another TF-IDF model would not be bit-equal.
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  OracleMatcher oracle(c, truth);
  EXPECT_EQ(PrepareCross(oracle, OptionsFor(oracle)), nullptr);
  TfIdfCosineMatcher tfidf(c);
  TfIdfCosineMatcher other(c);
  EXPECT_EQ(PrepareCross(tfidf, OptionsFor(other)), nullptr);
  EXPECT_NE(PrepareCross(tfidf, OptionsFor(tfidf)), nullptr);
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

std::array<uint64_t, 3> SignatureCounters(obs::MetricsRegistry& registry) {
  return {
      registry.GetCounter("weber.matching.signature.comparisons").Value(),
      registry.GetCounter("weber.matching.signature.filter_hits").Value(),
      registry.GetCounter("weber.matching.signature.fallbacks").Value()};
}

TEST(SignatureMetricsTest, PreparedCountersArePinned) {
  // Exact {comparisons, filter_hits, fallbacks} of a fixed workload, on
  // one store and across two: which pairs score on signatures, which
  // verdicts the required-overlap filter proves alone, and which take the
  // string path (bridged components and the unsigned last id of the
  // split). An oracle component bound to its store counts comparisons.
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  // A long description, so the length filter alone decides some pairs.
  model::EntityDescription verbose("http://kb/e/0", "person");
  verbose.AddPair("name", "eve adams of the old harbour district");
  verbose.AddPair("city", "rome");
  c.Add(verbose);
  model::EntityDescription last("http://kb/f/0", "person");
  last.AddPair("name", "frank hall");
  last.AddPair("city", "york");
  c.Add(last);
  TokenJaccardMatcher jaccard;
  TokenOverlapMatcher overlap;
  TfIdfCosineMatcher tfidf(c);
  WeightedAttributeMatcher weighted({{"name", 2.0, true}, {"city", 1.0, false}});
  UnpreparedMatcher unprepared;
  CompositeMatcher bridged({&unprepared, &jaccard}, {},
                           CompositeMatcher::Combine::kMin);
  OracleMatcher oracle(c, truth);
  CompositeMatcher oracle_max({&overlap, &oracle}, {},
                              CompositeMatcher::Combine::kMax);
  const Matcher* matchers[] = {&jaccard, &overlap, &tfidf,     &weighted,
                               &bridged, &oracle,  &oracle_max};
  const double thresholds[] = {0.2, 0.5, 0.9};

  obs::MetricsRegistry single;
  {
    obs::ScopedRegistry attach(&single);
    for (const Matcher* matcher : matchers) {
      SignatureStore store = SignatureStore::Build(c, OptionsFor(*matcher));
      std::unique_ptr<PreparedMatcher> prepared = Prepare(*matcher, store);
      ASSERT_NE(prepared, nullptr) << matcher->name();
      for (model::EntityId a = 0; a < c.size(); ++a) {
        for (model::EntityId b = a + 1; b < c.size(); ++b) {
          for (double t : thresholds) prepared->Matches(a, b, t);
        }
      }
    }
  }
  EXPECT_EQ(SignatureCounters(single),
            (std::array<uint64_t, 3>{588, 14, 84}));

  obs::MetricsRegistry cross;
  {
    obs::ScopedRegistry attach(&cross);
    for (const Matcher* matcher : matchers) {
      if (matcher == &oracle) continue;
      SignatureOptions options = OptionsFor(*matcher);
      SplitStores split(c, options);
      std::unique_ptr<CrossStoreMatcher> scorer =
          PrepareCross(*matcher, options);
      ASSERT_NE(scorer, nullptr) << matcher->name();
      for (model::EntityId a = 0; a < c.size(); ++a) {
        for (model::EntityId b = a + 1; b < c.size(); ++b) {
          for (double t : thresholds) {
            scorer->Matches(split.store(a), split.row(a), split.store(b),
                            split.row(b), t);
          }
        }
      }
    }
  }
  EXPECT_EQ(SignatureCounters(cross),
            (std::array<uint64_t, 3>{319, 12, 269}));
}

// ---------------------------------------------------------------------------
// Consumers: signatures on == signatures off
// ---------------------------------------------------------------------------

TEST(SignatureConsumerTest, RSwooshIdenticalWithAndWithoutSignatures) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.duplicate_fraction = 0.7;
  config.max_extra_descriptions = 3;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  TokenOverlapMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.6);

  iterative::SwooshResult with =
      iterative::RSwoosh(corpus.collection, threshold, true);
  iterative::SwooshResult without =
      iterative::RSwoosh(corpus.collection, threshold, false);
  EXPECT_EQ(with.comparisons, without.comparisons);
  EXPECT_EQ(with.merges, without.merges);
  EXPECT_EQ(with.clusters, without.clusters);
  ASSERT_EQ(with.resolved.size(), without.resolved.size());

  iterative::SwooshResult naive_with =
      iterative::NaivePairwiseResolve(corpus.collection, threshold, true);
  iterative::SwooshResult naive_without =
      iterative::NaivePairwiseResolve(corpus.collection, threshold, false);
  EXPECT_EQ(naive_with.comparisons, naive_without.comparisons);
  EXPECT_EQ(naive_with.merges, naive_without.merges);
  EXPECT_EQ(naive_with.clusters, naive_without.clusters);
}

TEST(SignatureConsumerTest, IterativeBlockingIdenticalWithAndWithoutSignatures) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.duplicate_fraction = 0.6;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::TokenBlocking blocker;
  blocking::BlockCollection blocks = blocker.Build(corpus.collection);
  TokenJaccardMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.5);

  iterative::IterativeBlockingResult with =
      iterative::IterativeBlocking(blocks, threshold, true);
  iterative::IterativeBlockingResult without =
      iterative::IterativeBlocking(blocks, threshold, false);
  EXPECT_EQ(with.comparisons, without.comparisons);
  EXPECT_EQ(with.merges, without.merges);
  EXPECT_EQ(with.block_passes, without.block_passes);
  EXPECT_EQ(with.clusters, without.clusters);

  iterative::IterativeBlockingResult indep_with =
      iterative::IndependentBlockER(blocks, threshold, true);
  iterative::IterativeBlockingResult indep_without =
      iterative::IndependentBlockER(blocks, threshold, false);
  EXPECT_EQ(indep_with.comparisons, indep_without.comparisons);
  EXPECT_EQ(indep_with.clusters, indep_without.clusters);
}

TEST(SignatureConsumerTest, IncrementalIdenticalWithTombstones) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.7;
  config.max_extra_descriptions = 3;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  TokenJaccardMatcher matcher;

  auto run = [&](bool prepared) {
    incremental::ResolverOptions options;
    options.match_threshold = 0.5;
    options.prepared_matching = prepared;
    incremental::IncrementalResolver resolver(&matcher, options);
    // Ingest in two batches with removals in between so tombstoned slots
    // are exercised on the signature path.
    std::vector<model::EntityDescription> first, second;
    for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
      (id < corpus.collection.size() / 2 ? first : second)
          .push_back(corpus.collection.at(id));
    }
    std::vector<model::EntityId> ids = resolver.Ingest(std::move(first));
    resolver.Remove(ids[0]);
    resolver.Remove(ids[ids.size() / 2]);
    resolver.Ingest(std::move(second));
    return std::make_pair(resolver.Clusters(), resolver.comparisons());
  };

  auto [clusters_with, comparisons_with] = run(true);
  auto [clusters_without, comparisons_without] = run(false);
  EXPECT_EQ(comparisons_with, comparisons_without);
  EXPECT_EQ(clusters_with, clusters_without);
}

TEST(SignatureConsumerTest, PipelineClustersIdenticalAcrossThreads) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.duplicate_fraction = 0.5;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::TokenBlocking blocker;
  TokenJaccardMatcher matcher;

  core::PipelineConfig string_config;
  string_config.blocker = &blocker;
  string_config.matcher = &matcher;
  string_config.match_threshold = 0.5;
  string_config.prepared_matching = false;
  string_config.num_threads = 1;
  core::PipelineResult reference =
      core::RunPipeline(corpus.collection, corpus.truth, string_config);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    core::PipelineConfig prepared_config = string_config;
    prepared_config.prepared_matching = true;
    prepared_config.num_threads = threads;
    core::PipelineResult result =
        core::RunPipeline(corpus.collection, corpus.truth, prepared_config);
    EXPECT_EQ(result.comparisons, reference.comparisons)
        << "threads " << threads;
    EXPECT_EQ(result.matches, reference.matches) << "threads " << threads;
    EXPECT_EQ(result.clusters, reference.clusters) << "threads " << threads;
  }
}

}  // namespace
}  // namespace weber::matching
