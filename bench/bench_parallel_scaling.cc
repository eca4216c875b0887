// E6 (§II, [18][10][11]): parallel blocking and meta-blocking.
//
// Claim to reproduce (Dedoop; Efthymiou et al. parallel meta-blocking):
// both token blocking and entity-based parallel meta-blocking scale
// near-linearly with the number of workers. Token blocking runs on the
// in-process MapReduce substrate, where threads stand in for Hadoop nodes;
// meta-blocking is metablocking::MetaBlock itself, whose node-centric
// passes run over chunks of nodes on the shared executor.
//
// Wall time is the measure (UseRealTime), but a shared host may give the
// process fewer CPUs than it has threads, so a wall-time speed-up is only
// evidence next to a spin calibration of the host taken at the same time
// (EXPERIMENTS.md E6). The `*_balance_speedup` counters are per-chunk
// thread-CPU sums over the slowest chunk: the speed-up the partitioning
// would realise on ideal cores. Outputs are identical for any thread
// count (tests/metablocking_test.cc pins them).
//
// The executor-backed rows read `balance_speedup` back from the
// `weber.executor.parallel_for_balance` histogram the ParallelFor calls
// publish.
//
// Rows: (job, workers).

#include <benchmark/benchmark.h>

#include <functional>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "mapreduce/parallel_token_blocking.h"
#include "matching/matcher.h"
#include "metablocking/pruning_schemes.h"
#include "obs/metrics.h"
#include "progressive/scheduler.h"

namespace weber {
namespace {

const datagen::Corpus& Corpus() {
  static const datagen::Corpus& corpus = *new datagen::Corpus(
      bench::DirtyCorpus(/*seed=*/17, /*num_entities=*/4000));
  return corpus;
}

const blocking::BlockCollection& Blocks() {
  static const blocking::BlockCollection& blocks = *[] {
    auto* b = new blocking::BlockCollection(
        blocking::TokenBlocking().Build(Corpus().collection));
    blocking::AutoPurgeBlocks(*b);
    return b;
  }();
  return blocks;
}

void BM_ParallelTokenBlocking(benchmark::State& state) {
  const datagen::Corpus& corpus = Corpus();
  size_t workers = static_cast<size_t>(state.range(0));
  mapreduce::JobStats stats;
  for (auto _ : state) {
    auto blocks =
        mapreduce::ParallelTokenBlocking(corpus.collection, workers, {},
                                         &stats);
    benchmark::DoNotOptimize(blocks);
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["map_balance_speedup"] = stats.map_balance_speedup;
  state.counters["reduce_balance_speedup"] = stats.reduce_balance_speedup;
  state.counters["map_s"] = stats.map_seconds;
  state.counters["shuffle_s"] = stats.shuffle_seconds;
  state.counters["intermediate"] =
      static_cast<double>(stats.intermediate_pairs);
}
BENCHMARK(BM_ParallelTokenBlocking)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

// Runs `fn` once under a fresh registry and returns what it published.
obs::RegistrySnapshot Measured(const std::function<void()>& fn) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);
  fn();
  return registry.TakeSnapshot();
}

// Mean chunk balance of the ParallelFor calls in a snapshot: the speedup
// this partitioning realises on ideal cores (see the note above).
double Balance(const obs::RegistrySnapshot& snap) {
  auto it = snap.histograms.find("weber.executor.parallel_for_balance");
  return it == snap.histograms.end() ? 1.0 : it->second.Mean();
}

void BM_ExecutorMetaBlocking(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  core::ScopedParallelism parallelism(threads);
  auto run = [] {
    auto pairs = metablocking::MetaBlock(Blocks(),
                                         metablocking::WeightScheme::kJs,
                                         metablocking::PruningScheme::kWnp);
    benchmark::DoNotOptimize(pairs);
  };
  for (auto _ : state) run();
  obs::RegistrySnapshot snap = Measured(run);
  state.counters["workers"] = static_cast<double>(threads);
  state.counters["balance_speedup"] = Balance(snap);
  state.counters["distinct_pairs"] = static_cast<double>(
      snap.counters.at("weber.metablocking.graph_edges"));
  state.counters["kept_pairs"] = static_cast<double>(
      snap.counters.at("weber.metablocking.kept_edges"));
}
BENCHMARK(BM_ExecutorMetaBlocking)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5)->UseRealTime();

void BM_ExecutorBatchedMatching(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  core::ScopedParallelism parallelism(threads);
  const datagen::Corpus& corpus = Corpus();
  std::vector<model::IdPair> candidates = metablocking::MetaBlock(
      Blocks(), metablocking::WeightScheme::kJs,
      metablocking::PruningScheme::kWnp);
  matching::TokenJaccardMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.5);
  auto run = [&] {
    progressive::StaticListScheduler scheduler(candidates);
    auto result = progressive::RunProgressive(
        corpus.collection, scheduler, threshold, candidates.size(),
        corpus.truth);
    benchmark::DoNotOptimize(result);
  };
  for (auto _ : state) run();
  state.counters["workers"] = static_cast<double>(threads);
  state.counters["balance_speedup"] = Balance(Measured(run));
}
BENCHMARK(BM_ExecutorBatchedMatching)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

}  // namespace
}  // namespace weber

WEBER_BENCH_MAIN("bench_parallel_scaling");
