#ifndef WEBER_PERFBENCH_COMMON_H_
#define WEBER_PERFBENCH_COMMON_H_

// Shared pieces of the benchmark binary: the one corpus generator every
// workload draws its input from, the result record a run prints, the
// helpers over the benchmark-side spans of traced runs, and small
// statistics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/executor.h"
#include "datagen/corpus_generator.h"
#include "matching/clustering.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_resolver.h"

namespace perfbench {

namespace model = weber::model;
namespace obs = weber::obs;

using Clock = std::chrono::steady_clock;

// Settings shared by the workloads.
constexpr double kMatchThreshold = 0.5;  // er_cli's and weber_serve's default.
constexpr size_t kIngestBatch = 64;      // Entities per ingest call.
constexpr size_t kPurgeCap = 64;         // Online purge cap where one is set.
// Distinct entities of the serve-ingest and stream-replay corpus (about
// 17.5k descriptions).
constexpr size_t kServeEntities = 10000;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
// How far the per-layer self times of a traced pass may fall short of its
// wall time, as a share of it.
constexpr double kPartsTolerance = 0.05;

/// Seconds between two steady-clock instants.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for data dirs and sockets (run.py passes one
  /// inside the build directory).
  std::string workdir = ".";
};

/// The outcome of one run: what the last stdout line reports.
class RunResult {
 public:
  /// Records an output check; a failed one makes the run incorrect and
  /// is reported on stderr.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// The shared datagen corpus: a dirty corpus of `num_entities` real-world
/// entities (half duplicated with 1-2 extra descriptions, a fifth of the
/// duplicates somehow-similar), so blocking and matching do heterogeneous
/// work. Descriptions are in datagen's shuffled arrival order.
weber::datagen::Corpus BuildCorpus(uint64_t seed, size_t num_entities);

/// The collection's descriptions as an ingest stream.
std::vector<model::EntityDescription> Descriptions(
    const model::EntityCollection& collection);

/// The small corpus set-up pushes through to warm the process.
weber::datagen::Corpus WarmupCorpus(uint64_t seed);

/// Marks a corpus description that has no served id (not acknowledged).
constexpr model::EntityId kNoId = std::numeric_limits<model::EntityId>::max();

/// `truth` re-expressed over other ids: corpus id c becomes ids[c]; pairs
/// touching kNoId drop out.
model::GroundTruth RemapTruth(const model::GroundTruth& truth,
                              const std::vector<model::EntityId>& ids);

/// Median of the values (0 for none).
double Median(std::vector<double> values);

/// Linear-interpolated quantile, q in [0, 1] (0 for none).
double Quantile(std::vector<double> values, double q);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Hardware threads available (at least 1).
size_t Nproc();

/// Threads a workload keeps busy: half the hardware threads. The batch
/// pipeline's executor parallelism, serve-ingest's shards and its client
/// threads are all this, so the busy threads (clients, the leader and the
/// executor workers it wakes) stay below nproc and never compete with each
/// other for a CPU.
size_t Parallelism();

/// Runs `setup` `times` times and returns the median duration in seconds.
double MedianSetupSeconds(int times, const std::function<void()>& setup);

/// Runs pass(0), pass(1), ...: at least `min_passes` times, then while
/// another pass of the mean length so far still ends within `seconds`.
void RunPasses(double seconds, size_t min_passes,
               const std::function<void(size_t)>& pass);

/// The seed of a run's i-th sub-corpus.
inline uint64_t SubSeed(uint64_t seed, size_t i) { return seed * 1009 + i; }

/// A non-durable resolver configuration with the shared threshold.
weber::serve::ShardedResolverOptions ResolverOptions(size_t shards,
                                                     size_t purge_cap);

/// Mean of a registry histogram (0 when absent or empty).
double HistogramMean(const obs::RegistrySnapshot& snapshot,
                     const std::string& name);
/// Sum of a registry histogram (0 when absent).
double HistogramSum(const obs::RegistrySnapshot& snapshot,
                    const std::string& name);
uint64_t CounterValue(const obs::RegistrySnapshot& snapshot,
                      const std::string& name);
double GaugeValue(const obs::RegistrySnapshot& snapshot,
                  const std::string& name);

/// Per-layer metrics read from the program's own registry.
/// Executor tasks and steals are per traced pass.
void SetExecutorMetrics(const weber::core::ExecutorStats& before,
                        const weber::core::ExecutorStats& after, size_t passes,
                        const obs::RegistrySnapshot& snapshot,
                        RunResult& result);
void SetIncrementalMetrics(const obs::RegistrySnapshot& snapshot,
                           RunResult& result);
void SetServeMetrics(const obs::RegistrySnapshot& snapshot,
                     RunResult& result);

/// The benchmark's own spans (traced runs only) live in a registry of
/// their own, so they never mix with the program's: its trace tree holds
/// the spans opened on the orchestrating thread (obs::Span), its event
/// log the calls client threads make.

/// Summed wall time of every span named `name` in the trees.
double TotalSeconds(const std::vector<obs::SpanSnapshot>& roots,
                    const std::string& name);
/// trace.wall_s (median traced pass) and obs.tracing_overhead_share
/// against the untraced median pass.
void SetTraceMetrics(const std::vector<obs::SpanSnapshot>& passes,
                     double untraced_wall_s, RunResult& result);
/// Summed self time of the pass spans (wall minus their direct children,
/// which run one after another) over their summed wall time: the share of
/// the traced passes no layer span covers.
double UnattributedShare(const std::vector<obs::SpanSnapshot>& passes);
/// Writes a traced run's spans and events as a Chrome/Perfetto trace to
/// <workdir>/trace-<workload>.json.
void WriteTrace(const Args& args, const obs::MetricsRegistry& spans);

/// What a registry recorded between two snapshots of it: counters and
/// histogram counts, sums and buckets as differences; gauges and histogram
/// min and max as in `after`.
obs::RegistrySnapshot Delta(const obs::RegistrySnapshot& before,
                            const obs::RegistrySnapshot& after);

/// Quality of final clusters against the truth: pairwise F1.
double ClusterF1(const weber::matching::Clusters& clusters,
                 const model::GroundTruth& truth);

/// The workloads. Each fills `result` with every end-to-end metric
/// (untraced) or every per-layer metric it measures (traced).
void RunBatchMetablocking(const Args& args, RunResult& result);
void RunStreamReplay(const Args& args, RunResult& result);
void RunServeIngest(const Args& args, RunResult& result);
void RunServeMixedDurable(const Args& args, RunResult& result);

}  // namespace perfbench

#endif  // WEBER_PERFBENCH_COMMON_H_
