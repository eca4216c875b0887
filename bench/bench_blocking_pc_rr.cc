// E2 (§II, [21][13]): schema-agnostic vs schema-based blocking under
// structural heterogeneity.
//
// Claim to reproduce: on heterogeneous Web data, token blocking keeps
// near-perfect pair completeness at a high reduction ratio, while
// traditional schema-based standard blocking loses recall as sources
// diverge — the more attributes the second KB renames, the more matches
// standard blocking misses, until it finds none at all.
//
// Rows: (method, schema_divergence). Counters: PC, PQ, RR, distinct
// pairs.
//
// BM_EvaluateBlocks/{token_purged,qgrams,suffix} time the evaluation
// itself, the comparison-propagation walk over the distinct pairs, on the
// default dirty corpus; `distinct_pairs` is the walk's output size.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "blocking/attribute_clustering.h"
#include "blocking/block_purging.h"
#include "blocking/qgrams_blocking.h"
#include "blocking/standard_blocking.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "eval/blocking_metrics.h"

namespace weber {
namespace {

// Divergence levels are encoded as integer percent for benchmark Args.
const datagen::Corpus& CorpusFor(int divergence_pct) {
  static auto& cache =
      *new std::map<int, std::unique_ptr<datagen::Corpus>>();
  auto& slot = cache[divergence_pct];
  if (!slot) {
    slot = std::make_unique<datagen::Corpus>(
        bench::CleanCleanCorpus(divergence_pct / 100.0));
  }
  return *slot;
}

void Report(benchmark::State& state, const blocking::BlockCollection& blocks,
            const model::GroundTruth& truth) {
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, truth);
  state.counters["PC"] = q.PairCompleteness();
  state.counters["PQ"] = q.PairQuality();
  state.counters["RR"] = q.ReductionRatio();
  state.counters["pairs"] = static_cast<double>(q.comparisons);
}

void BM_StandardBlocking(benchmark::State& state) {
  const datagen::Corpus& corpus = CorpusFor(static_cast<int>(state.range(0)));
  blocking::StandardBlocking blocker({"attr0", "attr1"});
  blocking::BlockCollection blocks;
  for (auto _ : state) {
    blocks = blocker.Build(corpus.collection);
  }
  Report(state, blocks, corpus.truth);
}
BENCHMARK(BM_StandardBlocking)
    ->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_TokenBlocking(benchmark::State& state) {
  const datagen::Corpus& corpus = CorpusFor(static_cast<int>(state.range(0)));
  blocking::TokenBlocking blocker;
  blocking::BlockCollection blocks;
  for (auto _ : state) {
    blocks = blocker.Build(corpus.collection);
    blocking::AutoPurgeBlocks(blocks);
  }
  Report(state, blocks, corpus.truth);
}
BENCHMARK(BM_TokenBlocking)
    ->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_AttributeClusteringBlocking(benchmark::State& state) {
  const datagen::Corpus& corpus = CorpusFor(static_cast<int>(state.range(0)));
  blocking::AttributeClusteringBlocking blocker;
  blocking::BlockCollection blocks;
  for (auto _ : state) {
    blocks = blocker.Build(corpus.collection);
    blocking::AutoPurgeBlocks(blocks);
  }
  Report(state, blocks, corpus.truth);
}
BENCHMARK(BM_AttributeClusteringBlocking)
    ->Arg(0)->Arg(25)->Arg(50)->Arg(75)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

enum class EvalBlocks { kTokenPurged, kQGrams, kSuffix };

void BM_EvaluateBlocks(benchmark::State& state, EvalBlocks kind) {
  static const datagen::Corpus& corpus = *new datagen::Corpus(
      bench::DirtyCorpus());
  blocking::BlockCollection blocks;
  switch (kind) {
    case EvalBlocks::kTokenPurged:
      blocks = blocking::TokenBlocking().Build(corpus.collection);
      blocking::AutoPurgeBlocks(blocks);
      break;
    case EvalBlocks::kQGrams:
      blocks = blocking::QGramsBlocking(3).Build(corpus.collection);
      break;
    case EvalBlocks::kSuffix:
      blocks = blocking::SuffixBlocking().Build(corpus.collection);
      break;
  }
  eval::BlockingQuality q;
  for (auto _ : state) {
    q = eval::EvaluateBlocks(blocks, corpus.truth);
    benchmark::DoNotOptimize(q.comparisons);
  }
  state.counters["distinct_pairs"] = static_cast<double>(q.comparisons);
  state.counters["PC"] = q.PairCompleteness();
  state.counters["blocks"] = static_cast<double>(blocks.NumBlocks());
}
BENCHMARK_CAPTURE(BM_EvaluateBlocks, token_purged, EvalBlocks::kTokenPurged)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvaluateBlocks, qgrams, EvalBlocks::kQGrams)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvaluateBlocks, suffix, EvalBlocks::kSuffix)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace weber

WEBER_BENCH_MAIN("bench_blocking_pc_rr");
