// The two serve-path workloads.
//
// serve-ingest: an in-process ShardedResolveService at shards = nproc/2,
// driven closed-loop by nproc/2 clients that each keep one 64-entity
// ingest in flight (purge cap 64, no durability). Saturates the sharded fan-out,
// the delta index, cross-store scoring and leader coalescing; meta-blocking,
// storage and the socket idle.
//
// serve-mixed-durable: an in-process UnixServer over weber_serve's defaults
// (one shard, per-shard WAL with fsync=batch) with purge cap 64. Set-up reopens
// a data dir that already holds a prefix of the corpus, so it includes
// recovery. Then an open loop: three ingest connections at a fixed rate
// well below saturation beside one connection resolving acknowledged ids.
// After the drain the data dir is reopened once more and must reproduce
// the live state.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <latch>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "core/executor.h"
#include "matching/matcher.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"

namespace perfbench {
namespace {

namespace serve = weber::serve;
namespace matching = weber::matching;
namespace core = weber::core;
namespace fs = std::filesystem;

// serve-mixed-durable's traffic: per ingest connection 40 requests/s of
// 16 entities (1920 entities/s in all, a small fraction of the single
// shard's saturation rate), and 200 resolves/s on the fourth connection.
constexpr size_t kMixedIngestConnections = 3;
constexpr double kMixedIngestRate = 40;
constexpr size_t kMixedIngestBatch = 16;
constexpr double kMixedResolveRate = 200;
// Descriptions already in the data dir when set-up reopens it.
constexpr size_t kMixedPrefix = 10000;
// weber_serve's coalescing cap, also the prefix load's batch size.
constexpr size_t kServeMaxBatch = 256;

/// Serial replay oracle: a single-shard, non-durable ShardedResolver fed
/// the descriptions in served-id order. Returns its digest; counts the
/// true matches it compared into *compared_true (truth over served ids).
uint64_t ReplayDigest(const std::vector<const model::EntityDescription*>& by_id,
                      const matching::Matcher& matcher, size_t purge_cap,
                      const model::GroundTruth& truth,
                      uint64_t* compared_true) {
  serve::ShardedResolver oracle(&matcher, ResolverOptions(1, purge_cap));
  *compared_true = 0;
  oracle.set_comparison_observer(
      [&truth, compared_true](const model::IdPair& pair, bool) {
        if (truth.IsMatch(pair)) ++*compared_true;
      });
  for (size_t begin = 0; begin < by_id.size(); begin += kIngestBatch) {
    std::vector<model::EntityDescription> batch;
    for (size_t i = begin; i < std::min(by_id.size(), begin + kIngestBatch);
         ++i) {
      batch.push_back(*by_id[i]);
    }
    oracle.Ingest(std::move(batch));
  }
  return oracle.StateDigest();
}

/// The served-id order of the acknowledged descriptions, or empty when the
/// acknowledged ids are not exactly 0..n-1.
std::vector<const model::EntityDescription*> ByServedId(
    const std::vector<model::EntityDescription>& stream,
    const std::vector<model::EntityId>& id_of) {
  size_t acked = 0;
  for (model::EntityId id : id_of) acked += id != kNoId;
  std::vector<const model::EntityDescription*> by_id(acked, nullptr);
  for (size_t c = 0; c < id_of.size(); ++c) {
    if (id_of[c] == kNoId) continue;
    if (id_of[c] >= acked || by_id[id_of[c]] != nullptr) return {};
    by_id[id_of[c]] = &stream[c];
  }
  return by_id;
}

/// Quality of a served state: F1 of its clusters, and the share of true
/// matches (among acknowledged descriptions) the replay oracle compared.
struct ServedQuality {
  bool digest_equal = false;
  bool ids_dense = false;
  double f1 = 0;
  double pc = 0;
};

ServedQuality CheckServed(const std::vector<model::EntityDescription>& stream,
                          const model::GroundTruth& truth,
                          const std::vector<model::EntityId>& id_of,
                          const matching::Clusters& clusters,
                          uint64_t live_digest,
                          const matching::Matcher& matcher,
                          size_t purge_cap) {
  ServedQuality quality;
  std::vector<const model::EntityDescription*> by_id =
      ByServedId(stream, id_of);
  quality.ids_dense = !by_id.empty();
  if (!quality.ids_dense) return quality;
  model::GroundTruth served_truth = RemapTruth(truth, id_of);
  uint64_t compared_true = 0;
  quality.digest_equal = ReplayDigest(by_id, matcher, purge_cap,
                                      served_truth, &compared_true) ==
                         live_digest;
  quality.f1 = ClusterF1(clusters, served_truth);
  quality.pc = served_truth.NumMatches() == 0
                   ? 0
                   : static_cast<double>(compared_true) /
                         static_cast<double>(served_truth.NumMatches());
  return quality;
}

// ---------------------------------------------------------------------------
// serve-ingest
// ---------------------------------------------------------------------------

serve::ShardedServiceOptions IngestServiceOptions(obs::MetricsRegistry* m) {
  serve::ShardedServiceOptions options;
  options.resolver = ResolverOptions(Parallelism(), kPurgeCap);
  options.resolver.metrics = m;
  return options;
}

struct IngestPass {
  double ingest_s = 0;  // First send to last acknowledgement.
  double wall_s = 0;    // First send to clusters.
  std::vector<double> latencies_s;
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::vector<model::EntityId> id_of;  // Corpus index -> served id.
  matching::Clusters clusters;
};

/// One closed-loop pass: Parallelism() clients each keep one kIngestBatch
/// ingest in flight until the stream is consumed, then the clusters are
/// read. With `spans`, the pass, its ingest phase and its clusters read are
/// spans and each client call is an event.
IngestPass RunIngestPass(const std::vector<model::EntityDescription>& stream,
                         serve::ShardedResolveService& service,
                         obs::MetricsRegistry* spans) {
  const size_t clients = Parallelism();
  const size_t batches = (stream.size() + kIngestBatch - 1) / kIngestBatch;
  IngestPass pass;
  pass.id_of.assign(stream.size(), kNoId);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> failed(clients, 0);
  std::atomic<size_t> next{0};
  std::latch start(1);

  auto client = [&](size_t c) {
    start.wait();
    for (;;) {
      size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= batches) break;
      size_t begin = b * kIngestBatch;
      size_t end = std::min(stream.size(), begin + kIngestBatch);
      std::vector<model::EntityDescription> batch(stream.begin() + begin,
                                                  stream.begin() + end);
      const double traced_sent = obs::TraceClockNow();
      Clock::time_point sent = Clock::now();
      serve::ShardedResolveService::IngestResult reply =
          service.Ingest(std::move(batch));
      Clock::time_point done = Clock::now();
      latencies[c].push_back(Seconds(sent, done));
      if (spans != nullptr) {
        spans->events().RecordComplete("serve.ingest_call", traced_sent,
                                       obs::TraceClockNow());
      }
      if (reply.status != serve::ServeErrc::kOk ||
          reply.ids.size() != end - begin) {
        ++failed[c];
        continue;
      }
      for (size_t i = begin; i < end; ++i) pass.id_of[i] = reply.ids[i - begin];
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  obs::Trace* trace = spans != nullptr ? &spans->trace() : nullptr;
  Clock::time_point t0, ingested, end;
  {
    obs::Span root(trace, "serve.pass");
    {
      obs::Span ingest(trace, "serve.ingest");
      t0 = Clock::now();
      start.count_down();
      for (std::thread& thread : threads) thread.join();
      ingested = Clock::now();
    }
    obs::Span span(trace, "serve.clusters");
    pass.clusters = service.Clusters();
    end = Clock::now();
  }

  pass.ingest_s = Seconds(t0, ingested);
  pass.wall_s = Seconds(t0, end);
  pass.requests = batches;
  for (size_t c = 0; c < clients; ++c) {
    pass.failed += failed[c];
    pass.latencies_s.insert(pass.latencies_s.end(), latencies[c].begin(),
                            latencies[c].end());
  }
  return pass;
}

// ---------------------------------------------------------------------------
// serve-mixed-durable
// ---------------------------------------------------------------------------

serve::ShardedServiceOptions MixedServiceOptions(const std::string& data_dir,
                                                 obs::MetricsRegistry* m) {
  // weber_serve's defaults (one shard, fsync=batch) plus the purge cap of
  // the other serve workloads: without one, every ingest scores against
  // the whole posting of each popular token, so cost grows with the data
  // dir and recovering the prefix alone takes about 10 s.
  serve::ShardedServiceOptions options;
  options.max_batch = kServeMaxBatch;
  options.resolver = ResolverOptions(1, kPurgeCap);
  options.resolver.data_dir = data_dir;
  options.resolver.fsync = weber::storage::FsyncPolicy::kBatch;
  options.resolver.metrics = m;
  return options;
}

/// A running in-process weber_serve: service, socket server on its own
/// thread, and one connected client per load connection.
class LiveServer {
 public:
  LiveServer(const matching::Matcher& matcher,
             const serve::ShardedServiceOptions& options,
             const std::string& socket_path, size_t connections)
      : service_(&matcher, options),
        server_(&service_, serve::ServerOptions{.socket_path = socket_path}) {
    if (!service_.recovery_status().ok()) {
      error_ = "recovery failed: " + service_.recovery_status().ToString();
      return;
    }
    weber::storage::Status status = server_.Start();
    if (!status.ok()) {
      error_ = "server start failed: " + status.ToString();
      return;
    }
    thread_ = std::thread([this] { server_.Serve(); });
    clients_.resize(connections);
    for (serve::ServeClient& client : clients_) {
      serve::Request ping;
      if (!client.Connect(socket_path) ||
          client.Call(ping).status != serve::ServeErrc::kOk) {
        error_ = "cannot reach the server at " + socket_path;
        return;
      }
    }
  }

  /// Closes the connections and stops the server, which drains the
  /// service and syncs its WAL. Idempotent.
  void Stop() {
    for (serve::ServeClient& client : clients_) client.Close();
    if (thread_.joinable()) {
      server_.RequestStop();
      thread_.join();
    }
  }

  ~LiveServer() { Stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  const std::string& error() const { return error_; }
  serve::ServeClient& client(size_t i) { return clients_[i]; }
  serve::ShardedResolveService& service() { return service_; }

 private:
  serve::ShardedResolveService service_;
  serve::UnixServer server_;
  std::vector<serve::ServeClient> clients_;
  std::string error_;
  std::thread thread_;
};

/// Outcome of the open loop.
struct OpenLoop {
  std::vector<double> ingest_ms;   // From scheduled send.
  std::vector<double> resolve_ms;  // From scheduled send.
  std::vector<double> late_ms;     // Actual minus scheduled send.
  std::vector<double> call_s;      // Ingest client call duration.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0;  // Schedule start to the last completion.
};

OpenLoop RunOpenLoop(LiveServer& server,
                     const std::vector<model::EntityDescription>& stream,
                     std::vector<model::EntityId>& id_of, double seconds,
                     uint64_t seed, obs::EventLog* events) {
  OpenLoop loop;
  std::mutex mu;  // Guards acked and the merged samples below.
  std::vector<model::EntityId> acked;
  for (model::EntityId id : id_of) {
    if (id != kNoId) acked.push_back(id);
  }
  std::atomic<size_t> next{kMixedPrefix};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  auto merge = [&](std::vector<double>& into, const std::vector<double>& from) {
    std::lock_guard<std::mutex> lock(mu);
    into.insert(into.end(), from.begin(), from.end());
  };
  auto scheduled_at = [&](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };

  auto ingest = [&](size_t conn) {
    serve::ServeClient& client = server.client(conn);
    std::vector<double> latency, late, calls;
    uint64_t attempted = 0, failed = 0;
    for (uint64_t k = 0;; ++k) {
      double offset = (static_cast<double>(k) +
                       static_cast<double>(conn) / kMixedIngestConnections) /
                      kMixedIngestRate;
      if (offset >= seconds) break;
      size_t begin = next.fetch_add(kMixedIngestBatch);
      if (begin >= stream.size()) break;
      size_t end = std::min(stream.size(), begin + kMixedIngestBatch);
      serve::Request request;
      request.type = serve::MessageType::kIngest;
      request.entities.assign(stream.begin() + begin, stream.begin() + end);
      Clock::time_point scheduled = scheduled_at(offset);
      std::this_thread::sleep_until(scheduled);
      const double traced_sent = obs::TraceClockNow();
      Clock::time_point sent = Clock::now();
      serve::Response response = client.Call(request);
      Clock::time_point done = Clock::now();
      ++attempted;
      latency.push_back(1e3 * Seconds(scheduled, done));
      late.push_back(1e3 * Seconds(scheduled, sent));
      calls.push_back(Seconds(sent, done));
      if (events != nullptr) {
        events->RecordComplete("serve.ingest_call", traced_sent,
                               obs::TraceClockNow());
      }
      if (response.status != serve::ServeErrc::kOk ||
          response.ids.size() != end - begin) {
        ++failed;
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      for (size_t i = begin; i < end; ++i) {
        id_of[i] = response.ids[i - begin];
        acked.push_back(id_of[i]);
      }
    }
    merge(loop.ingest_ms, latency);
    merge(loop.late_ms, late);
    merge(loop.call_s, calls);
    std::lock_guard<std::mutex> lock(mu);
    loop.attempted += attempted;
    loop.failed += failed;
  };

  auto resolve = [&] {
    serve::ServeClient& client = server.client(kMixedIngestConnections);
    std::mt19937_64 rng(seed);
    std::vector<double> latency, late;
    uint64_t attempted = 0, failed = 0;
    for (uint64_t k = 0;; ++k) {
      double offset = static_cast<double>(k) / kMixedResolveRate;
      if (offset >= seconds) break;
      Clock::time_point scheduled = scheduled_at(offset);
      std::this_thread::sleep_until(scheduled);
      serve::Request request;
      request.type = serve::MessageType::kResolve;
      {
        std::lock_guard<std::mutex> lock(mu);
        request.id = acked[rng() % acked.size()];
      }
      const double traced_sent = obs::TraceClockNow();
      Clock::time_point sent = Clock::now();
      serve::Response response = client.Call(request);
      Clock::time_point done = Clock::now();
      ++attempted;
      latency.push_back(1e3 * Seconds(scheduled, done));
      late.push_back(1e3 * Seconds(scheduled, sent));
      if (events != nullptr) {
        events->RecordComplete("serve.resolve_call", traced_sent,
                               obs::TraceClockNow());
      }
      if (response.status != serve::ServeErrc::kOk ||
          !std::binary_search(response.members.begin(),
                              response.members.end(), request.id)) {
        ++failed;
      }
    }
    merge(loop.resolve_ms, latency);
    merge(loop.late_ms, late);
    std::lock_guard<std::mutex> lock(mu);
    loop.attempted += attempted;
    loop.failed += failed;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kMixedIngestConnections; ++c) {
    threads.emplace_back(ingest, c);
  }
  threads.emplace_back(resolve);
  for (std::thread& thread : threads) thread.join();
  loop.seconds = Seconds(t0, Clock::now());
  return loop;
}

/// Total bytes of the per-shard WAL files under a data dir.
double WalBytes(const std::string& data_dir) {
  double bytes = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(data_dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("wal-", 0) == 0) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

}  // namespace

void RunServeIngest(const Args& args, RunResult& result) {
  weber::datagen::Corpus corpus = BuildCorpus(args.seed, kServeEntities);
  const std::vector<model::EntityDescription> stream =
      Descriptions(corpus.collection);
  const std::vector<model::EntityDescription> warmup =
      Descriptions(WarmupCorpus(args.seed).collection);
  matching::TokenJaccardMatcher matcher;

  // Set-up: build the service and push a small warm-up corpus through it,
  // which also finishes the process's lazy set-up (executor, dispatch).
  const double setup_s = MedianSetupSeconds(kSetups, [&] {
    serve::ShardedResolveService service(&matcher,
                                         IngestServiceOptions(nullptr));
    RunIngestPass(warmup, service, nullptr);
    service.BeginShutdown();
    service.Drain();
  });

  std::vector<double> ingest_s, wall_s, latencies;
  uint64_t requests = 0, failed = 0;
  std::unique_ptr<serve::ShardedResolveService> last;
  IngestPass last_pass;
  RunPasses(args.seconds * (args.trace ? 0.5 : 1.0), 1, [&](size_t) {
    last.reset();
    last = std::make_unique<serve::ShardedResolveService>(
        &matcher, IngestServiceOptions(nullptr));
    last_pass = RunIngestPass(stream, *last, nullptr);
    ingest_s.push_back(last_pass.ingest_s);
    wall_s.push_back(last_pass.wall_s);
    latencies.insert(latencies.end(), last_pass.latencies_s.begin(),
                     last_pass.latencies_s.end());
    requests += last_pass.requests;
    failed += last_pass.failed;
    last->BeginShutdown();
    last->Drain();
  });
  result.CountOps(requests, failed);
  result.Check(failed == 0, "every ingest is acknowledged");

  // Oracle on the last pass: its digest equals a serial replay of the same
  // descriptions in acknowledged-id order.
  ServedQuality quality =
      CheckServed(stream, corpus.truth, last_pass.id_of, last_pass.clusters,
                  last->resolver().StateDigest(), matcher, kPurgeCap);
  result.Check(quality.ids_dense, "acknowledged ids are exactly 0..n-1");
  result.Check(quality.digest_equal,
               "served digest equals the serial replay digest");
  last.reset();

  // The traced run reports the timings too, from its untraced passes,
  // as ungated per-layer metrics (see README.md).
  const double n = static_cast<double>(stream.size());
  result.Set("setup_s", setup_s, "s");
  result.Set("wall_s", Median(wall_s), "s");
  result.Set("entities_per_s", n / Median(ingest_s), "1/s");
  result.Set("f1", quality.f1, "share");
  result.Set("pc", quality.pc, "share");
  result.Set("ok_share",
             static_cast<double>(requests - failed) /
                 static_cast<double>(requests),
             "share");
  result.Set("ingest_p50_ms", 1e3 * Quantile(latencies, 0.5), "ms");
  result.Set("ingest_p99_ms", 1e3 * Quantile(latencies, 0.99), "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  obs::MetricsRegistry spans;
  spans.events().Enable();
  obs::MetricsRegistry registry;
  core::ExecutorStats before = core::Executor::Shared().Snapshot();
  std::vector<double> traced_latencies;
  uint64_t traced_failed = 0;
  {
    obs::ScopedRegistry attach(&registry);
    RunPasses(args.seconds * 0.5, 1, [&](size_t) {
      serve::ShardedResolveService service(&matcher,
                                           IngestServiceOptions(&registry));
      IngestPass traced = RunIngestPass(stream, service, &spans);
      service.BeginShutdown();
      service.Drain();
      traced_failed += traced.failed;
      traced_latencies.insert(traced_latencies.end(),
                              traced.latencies_s.begin(),
                              traced.latencies_s.end());
    });
  }
  core::ExecutorStats after = core::Executor::Shared().Snapshot();
  result.Check(traced_failed == 0, "every traced ingest is acknowledged");
  const std::vector<obs::SpanSnapshot> roots = spans.trace().Snapshot();
  obs::RegistrySnapshot snapshot = registry.TakeSnapshot(false);
  SetExecutorMetrics(before, after, roots.size(), snapshot, result);
  SetIncrementalMetrics(snapshot, result);
  SetServeMetrics(snapshot, result);
  double call_s = 0;
  for (double latency : traced_latencies) call_s += latency;
  result.Set("serve.client_call_s",
             call_s / static_cast<double>(traced_latencies.size()), "s");

  // Parts: the ingest phase (front door plus resolver batches, which run
  // one at a time) and the clusters read must cover each pass; the
  // resolver's own busy time must fit inside the ingest phases.
  SetTraceMetrics(roots, Median(wall_s), result);
  const double unattributed = UnattributedShare(roots);
  const double ingest_phase_s = TotalSeconds(roots, "serve.ingest");
  const double resolver_busy =
      HistogramSum(snapshot, "weber.incremental.ingest_seconds");
  result.Set("trace.unattributed_share", unattributed, "share");
  result.Check(unattributed <= kPartsTolerance &&
                   resolver_busy <= ingest_phase_s * (1 + kPartsTolerance),
               "layer self times add up to the traced wall time");
  WriteTrace(args, spans);
}

void RunServeMixedDurable(const Args& args, RunResult& result) {
  // Enough descriptions for the prefix plus the whole schedule.
  const size_t needed =
      kMixedPrefix + static_cast<size_t>(kMixedIngestConnections *
                                         kMixedIngestRate * kMixedIngestBatch *
                                         (args.seconds + 1));
  weber::datagen::Corpus corpus = BuildCorpus(args.seed, needed * 10 / 17);
  const std::vector<model::EntityDescription> stream =
      Descriptions(corpus.collection);
  matching::TokenJaccardMatcher matcher;
  const std::string data_dir = args.workdir + "/mixed-data";
  const std::string socket_path = args.workdir + "/mixed.sock";
  fs::remove_all(data_dir);
  fs::create_directories(data_dir);

  // The prefix, loaded untimed as weber_serve would have logged it.
  std::vector<model::EntityId> id_of(stream.size(), kNoId);
  {
    serve::ShardedResolver loader(&matcher,
                                  MixedServiceOptions(data_dir, nullptr).resolver);
    result.Check(loader.recovery_status().ok(), "the data dir initialises");
    for (size_t begin = 0; begin < kMixedPrefix; begin += kServeMaxBatch) {
      std::vector<model::EntityDescription> batch(
          stream.begin() + begin,
          stream.begin() + std::min(kMixedPrefix, begin + kServeMaxBatch));
      std::vector<model::EntityId> ids = loader.Ingest(std::move(batch));
      for (size_t i = 0; i < ids.size(); ++i) id_of[begin + i] = ids[i];
    }
    result.Check(loader.Checkpoint().ok(), "the prefix syncs");
  }

  obs::MetricsRegistry spans;
  spans.events().Enable();
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics = args.trace ? &registry : nullptr;
  obs::Trace* trace = args.trace ? &spans.trace() : nullptr;
  const size_t connections = kMixedIngestConnections + 1;

  // Set-up: reopen the data dir (recovering the prefix), start the socket
  // server and connect. Repeated; the last one serves the open loop.
  std::unique_ptr<LiveServer> server;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    if (server) {
      server->Stop();
      server.reset();
    }
    Clock::time_point start = Clock::now();
    server = std::make_unique<LiveServer>(
        matcher, MixedServiceOptions(data_dir, metrics), socket_path,
        connections);
    setups.push_back(Seconds(start, Clock::now()));
    result.Check(server->error().empty(), "server set-up: " + server->error());
    if (!server->error().empty()) return;
  }
  // Every set-up recovers the prefix through the ordinary ingest path,
  // which records into the registry; the per-layer metrics cover only
  // what the open loop adds after this point.
  const obs::RegistrySnapshot after_setup = registry.TakeSnapshot(false);

  OpenLoop loop;
  matching::Clusters clusters;
  Clock::time_point start = Clock::now();
  {
    obs::Span root(trace, "serve.mixed_pass");
    {
      obs::Span span(trace, "serve.open_loop");
      loop = RunOpenLoop(*server, stream, id_of, args.seconds, args.seed,
                         args.trace ? &spans.events() : nullptr);
    }
    {
      obs::Span span(trace, "serve.drain");
      server->Stop();
    }
    obs::Span span(trace, "serve.clusters");
    clusters = server->service().Clusters();
  }
  const double wall = Seconds(start, Clock::now());
  const uint64_t live_digest = server->service().resolver().StateDigest();
  const double entities = static_cast<double>(server->service().resolver().size());
  server.reset();
  result.CountOps(loop.attempted, loop.failed);
  result.Check(loop.failed == 0, "every ingest and resolve succeeds");

  // Recovery: the reopened data dir reproduces the live state.
  const double wal_bytes = WalBytes(data_dir);
  double recover_s = 0;
  uint64_t recovered_osn = 0;
  {
    Clock::time_point reopen = Clock::now();
    serve::ShardedResolveService reopened(&matcher,
                                          MixedServiceOptions(data_dir, nullptr));
    recover_s = Seconds(reopen, Clock::now());
    result.Check(reopened.recovery_status().ok(), "the data dir reopens");
    result.Check(reopened.resolver().StateDigest() == live_digest,
                 "the reopened digest equals the live digest");
    recovered_osn = reopened.resolver().osn();
  }
  fs::remove_all(data_dir);

  ServedQuality quality = CheckServed(stream, corpus.truth, id_of, clusters,
                                      live_digest, matcher, kPurgeCap);
  result.Check(quality.ids_dense, "acknowledged ids are exactly 0..n-1");
  result.Check(quality.digest_equal,
               "served digest equals the serial replay digest");

  // The traced run reports the timings too, as ungated per-layer metrics
  // (see README.md); tracing adds only an event per call to the open loop.
  result.Set("setup_s", Median(setups), "s");
  result.Set("wall_s", wall, "s");
  result.Set("entities_per_s",
             (entities - static_cast<double>(kMixedPrefix)) / loop.seconds,
             "1/s");
  result.Set("f1", quality.f1, "share");
  result.Set("pc", quality.pc, "share");
  result.Set("ok_share",
             static_cast<double>(loop.attempted - loop.failed) /
                 static_cast<double>(loop.attempted),
             "share");
  result.Set("ingest_p50_ms", Quantile(loop.ingest_ms, 0.5), "ms");
  result.Set("ingest_p99_ms", Quantile(loop.ingest_ms, 0.99), "ms");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (!args.trace) return;

  obs::RegistrySnapshot snapshot =
      Delta(after_setup, registry.TakeSnapshot(false));
  SetIncrementalMetrics(snapshot, result);
  SetServeMetrics(snapshot, result);
  double call_s = 0;
  for (double c : loop.call_s) call_s += c;
  call_s = loop.call_s.empty() ? 0 : call_s / static_cast<double>(loop.call_s.size());
  result.Set("serve.client_call_s", call_s, "s");
  result.Set("serve.transport_s",
             call_s - HistogramMean(snapshot, "weber.serve.request_seconds"),
             "s");
  result.Set("serve.resolve_p50_ms", Quantile(loop.resolve_ms, 0.5), "ms");
  result.Set("serve.resolve_p99_ms", Quantile(loop.resolve_ms, 0.99), "ms");
  result.Set("storage.wal_bytes_per_entity", wal_bytes / entities, "B");
  result.Set("storage.recovered_osn", static_cast<double>(recovered_osn),
             "count");
  result.Set("storage.recover_s", recover_s, "s");
  result.Set("loadgen.late_p99_ms", Quantile(loop.late_ms, 0.99), "ms");
  result.Set("loadgen.late_max_ms", Quantile(loop.late_ms, 1.0), "ms");
  result.Set("trace.wall_s", wall, "s");
  WriteTrace(args, spans);
}

}  // namespace perfbench
