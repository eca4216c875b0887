// E4 (§II, [22]): meta-blocking weight x pruning sweep.
//
// Claim to reproduce (Papadakis et al., TKDE'14): restructuring a
// redundancy-heavy blocking collection via its blocking graph discards
// the vast majority of comparisons while retaining nearly all matches.
// Node-centric schemes (WNP/CNP) keep more matches than their global
// counterparts (WEP/CEP) at similar cost, and ARCS/ECBS weights tend to
// dominate raw CBS.
//
// Rows: weight scheme x pruning scheme. Counters: kept pairs, share of
// original comparisons, PC (recall of the true matches among kept
// pairs), PQ.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "eval/blocking_metrics.h"
#include "metablocking/pruning_schemes.h"
#include "metablocking/weight_schemes.h"

namespace weber {
namespace {

struct Baseline {
  datagen::Corpus corpus;
  blocking::BlockCollection blocks;
  uint64_t original_pairs;
};

const Baseline& GetBaseline() {
  static const Baseline& baseline = *[] {
    auto* b = new Baseline{bench::DirtyCorpus(/*seed=*/11,
                                              /*num_entities=*/1200),
                           {}, 0};
    b->blocks = blocking::TokenBlocking().Build(b->corpus.collection);
    blocking::AutoPurgeBlocks(b->blocks);
    b->original_pairs = b->blocks.CountDistinctPairs();
    return b;
  }();
  return baseline;
}

void BM_MetaBlocking(benchmark::State& state) {
  const Baseline& baseline = GetBaseline();
  auto weights =
      metablocking::kAllWeightSchemes[static_cast<size_t>(state.range(0))];
  auto pruning =
      metablocking::kAllPruningSchemes[static_cast<size_t>(state.range(1))];
  std::vector<model::IdPair> kept;
  for (auto _ : state) {
    kept = metablocking::MetaBlock(baseline.blocks, weights, pruning);
  }
  eval::BlockingQuality q = eval::EvaluatePairs(kept, baseline.corpus.truth,
                                                baseline.corpus.collection);
  state.counters["kept_pairs"] = static_cast<double>(q.comparisons);
  state.counters["kept_share"] =
      static_cast<double>(q.comparisons) /
      static_cast<double>(baseline.original_pairs);
  state.counters["PC"] = q.PairCompleteness();
  state.counters["PQ"] = q.PairQuality();
  state.SetLabel(metablocking::ToString(weights) + "+" +
                 metablocking::ToString(pruning));
}
BENCHMARK(BM_MetaBlocking)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Reciprocal variants of the node-centric schemes.
void BM_MetaBlockingReciprocal(benchmark::State& state) {
  const Baseline& baseline = GetBaseline();
  auto weights =
      metablocking::kAllWeightSchemes[static_cast<size_t>(state.range(0))];
  auto pruning = state.range(1) == 0 ? metablocking::PruningScheme::kWnp
                                     : metablocking::PruningScheme::kCnp;
  metablocking::PruneOptions options;
  options.reciprocal = true;
  std::vector<model::IdPair> kept;
  for (auto _ : state) {
    kept = metablocking::MetaBlock(baseline.blocks, weights, pruning,
                                   options);
  }
  eval::BlockingQuality q = eval::EvaluatePairs(kept, baseline.corpus.truth,
                                                baseline.corpus.collection);
  state.counters["kept_pairs"] = static_cast<double>(q.comparisons);
  state.counters["kept_share"] =
      static_cast<double>(q.comparisons) /
      static_cast<double>(baseline.original_pairs);
  state.counters["PC"] = q.PairCompleteness();
  state.counters["PQ"] = q.PairQuality();
  state.SetLabel("reciprocal " + metablocking::ToString(weights) + "+" +
                 metablocking::ToString(pruning));
}
BENCHMARK(BM_MetaBlockingReciprocal)
    ->ArgsProduct({{2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace weber

BENCHMARK_MAIN();
