#ifndef WEBER_SERVE_SHARDED_RESOLVER_H_
#define WEBER_SERVE_SHARDED_RESOLVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blocking/token_blocking.h"
#include "incremental/delta_index.h"
#include "incremental/entity_store.h"
#include "incremental/resolver.h"
#include "matching/clustering.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "model/entity.h"
#include "serve/vocabulary.h"
#include "storage/options.h"
#include "storage/status.h"
#include "storage/wal.h"
#include "util/union_find.h"

namespace weber::obs {
class MetricsRegistry;
}  // namespace weber::obs

namespace weber::serve {

/// The points inside ShardedResolver::Checkpoint() between which a crash
/// leaves a distinct directory state (see ShardedResolverOptions::
/// checkpoint_hook).
enum class CheckpointStage {
  kSnapshotWritten,  // serve-snapshot-G.tmp complete, not yet renamed.
  kSnapshotRenamed,  // serve-snapshot-G committed; shards on the old WALs.
  kWalsRotated,      // Every shard on wal-G; old generation not unlinked.
};

/// Configuration of a ShardedResolver. Merge propagation is a
/// single-shard feature (it forgoes the replay exactness sharding is
/// built on) and is intentionally absent.
struct ShardedResolverOptions {
  /// Shard count, 1..kMaxShards. One shard reproduces the single-store
  /// IncrementalResolver exactly; more shards split the same work.
  size_t shards = 1;

  /// Match decision threshold applied to the matcher's similarity.
  double match_threshold = 0.5;

  /// Delta token index configuration (normalisation, min token length,
  /// online purging cap) — shared with the batch TokenBlocking builder.
  blocking::TokenBlockingOptions index;

  /// Score candidates over interned signatures via the cross-store
  /// prepared twin of the configured matcher (bit-equal to the string
  /// path). Matchers without a cross twin fall back to string scoring.
  bool prepared_matching = true;

  /// When non-empty, every mutation is write-ahead logged into per-shard
  /// WALs under data_dir/shard-NN/ before it is acknowledged, and
  /// construction recovers whatever the directory holds (check
  /// recovery_status() before serving). The directory must exist.
  std::string data_dir;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kBatch;
  uint64_t batch_fsync_interval = 64;
  /// Write a snapshot generation every N mutations (the meaning of
  /// storage::DurabilityOptions::snapshot_every); 0 = only explicit
  /// Checkpoint() calls.
  uint64_t snapshot_every = 0;
  /// Called at each CheckpointStage; crash tests kill the process there.
  std::function<void(CheckpointStage)> checkpoint_hook;

  /// Metrics sink. When null the ambient obs::Current() registry of the
  /// calling thread is used (and may itself be null = detached).
  obs::MetricsRegistry* metrics = nullptr;
};

/// A hash-partitioned IncrementalResolver: the serving path split into N
/// independent shards whose replay is bit-equal to the single-shard
/// resolver for any shard count.
///
/// Entities are assigned to shards by MixFingerprint(gid) % N (gid = the
/// dense global id Ingest issues, identical to the single-store id
/// sequence); each shard owns an EntityStore, a SignatureStore and a
/// write-ahead log. The delta token index is partitioned *by token hash*
/// instead — a token's whole posting lives on one shard, so the online
/// purge cap fires at exactly the single-index counts. An ingest batch
/// runs in alternating parallel/serial phases:
///
///   A  per entity shard: tokenise, TF-IDF vectorise, vocabulary lookups;
///   B  serial: intern the batch's unknown tokens in (entity, position)
///      order into the shared vocabulary;
///   C  per entity shard: append store rows + WAL records, absorb the
///      pre-built signatures;
///   D  per token shard: positioned index absorb, mailing each candidate
///      tagged (batch index, shared-token position, posting order);
///   E  serial: the cross-shard mailbox merge — sort the mail by that tag
///      and keep each pair's first occurrence, which reproduces the
///      single-index candidate emission order exactly;
///   F  parallel: score candidates (cross-store prepared or string path);
///   G  serial: commit verdicts in candidate order into the global
///      union-find.
///
/// Parallel phases are capped at `shards`-way parallelism (executor
/// affinity), so shards=1 runs the whole batch inline and the shard count
/// is the unit of scaling the serve bench measures. Not thread-safe;
/// ShardedResolveService (serve/service.h) adds the concurrent front
/// door.
class ShardedResolver {
 public:
  /// WAL records carry a u64 shard participant mask.
  static constexpr size_t kMaxShards = 64;

  /// The matcher is borrowed and must outlive the resolver.
  explicit ShardedResolver(const matching::Matcher* matcher,
                           ShardedResolverOptions options = {});

  /// Outcome of construction-time recovery: always ok without a data_dir.
  /// A resolver whose recovery failed must not serve.
  const storage::Status& recovery_status() const { return recovery_status_; }

  /// Observer of every comparison in commit order.
  using ComparisonObserver =
      std::function<void(const model::IdPair&, bool matched)>;
  void set_comparison_observer(ComparisonObserver observer) {
    observer_ = std::move(observer);
  }

  /// Ingests a batch: assigns dense global ids, fans the work across the
  /// shards and commits the verdicts in deterministic order. Returns the
  /// assigned ids. Deterministic for any shard or thread count.
  std::vector<model::EntityId> Ingest(
      std::vector<model::EntityDescription> batch);

  /// The cluster of a live entity, or nullopt for unknown/removed ids.
  std::optional<incremental::IncrementalResolver::Resolution> Resolve(
      model::EntityId id);

  /// Retires an entity (same semantics as IncrementalResolver::Remove).
  bool Remove(model::EntityId id);

  /// All current clusters over live entities (singletons included,
  /// members ascending; same order as the single-shard resolver).
  matching::Clusters Clusters();

  /// Match edges accepted so far, in commit order, minus removed ones.
  const std::vector<model::IdPair>& matches() const { return matches_; }

  uint64_t comparisons() const { return comparisons_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t merges() const { return merges_; }
  /// Mutations applied (and, when durable, logged) so far — one per
  /// ingest batch or successful remove.
  uint64_t osn() const { return osn_next_; }

  size_t shards() const { return options_.shards; }
  size_t size() const { return row_of_.size(); }
  size_t live_count() const;
  bool alive(model::EntityId id) const;
  /// The description behind an issued id, decoded from its store row.
  model::EntityDescription DescriptionOf(model::EntityId id) const;

  /// The entity shard owning a global id.
  static size_t ShardOf(model::EntityId id, size_t shards);

  /// Aggregated delta-index stats (sums over the token shards).
  incremental::DeltaIndexStats IndexStats() const;

  /// CRC32C witness of the externally observable state: every issued id's
  /// liveness + description plus the match edges in commit order. Two
  /// resolvers fed the same stream are digest-equal iff they resolved it
  /// identically — the shard-count bit-equality oracle.
  uint64_t StateDigest() const;

  /// Exports the merged token index (token-sorted across shards) for
  /// blocking-quality evaluation; byte-compatible with the single-shard
  /// resolver's export.
  blocking::BlockCollection IndexBlocks(
      const model::EntityCollection* collection) const;

  /// Dense copy of every issued description (tombstones included), ids
  /// preserved.
  model::EntityCollection CollectionSnapshot() const;

  /// Folds the WALs into a snapshot generation G = osn(): writes
  /// `serve-snapshot-G` (every shard's store, signature arenas and token
  /// index, plus the shared vocabulary and the global manifest) with one
  /// atomic rename as the commit point, rotates each shard to
  /// `shard-NN/wal-G`, then unlinks the previous generation. A no-op sync
  /// when nothing was mutated since the last generation; Ok when not
  /// durable.
  storage::Status Checkpoint();

  /// Forces every shard WAL to disk (the shutdown barrier). Ok when not
  /// durable.
  storage::Status Sync();

  /// The osn watermark of the snapshot the WALs extend (0 = none).
  uint64_t generation() const { return generation_; }

 private:
  struct Shard {
    incremental::EntityStore store;  // Rows are shard-local.
    std::optional<matching::SignatureStore> signatures;
    storage::WriteAheadLog wal;
  };

  /// One cross-shard candidate in flight from a token shard to the
  /// mailbox merge.
  struct Mail {
    uint32_t batch_index = 0;  // Entity index within the ingest batch.
    uint32_t position = 0;     // Shared-token position in its token list.
    model::EntityId other = 0;
  };

  obs::MetricsRegistry* Registry() const;
  /// Heap bytes of the shard stores plus the global row map — the
  /// weber.incremental.store_bytes gauge.
  size_t StoreBytes() const;
  std::vector<model::EntityId> IngestLocked(
      std::vector<model::EntityDescription> batch, bool log);
  bool RemoveLocked(model::EntityId id, bool log);
  void EnsureForestFresh();
  const std::vector<model::EntityId>& MembersOf(model::EntityId root);
  model::EntityId MergeClusters(model::EntityId ra, model::EntityId rb);
  void CommitMatch(const model::IdPair& pair);

  storage::Status RecoverOrInit();
  storage::Status InitFresh();
  storage::Status RecoverExisting();
  storage::Status LoadSnapshot();
  storage::Status WriteMeta();
  void MaybeCheckpoint();
  void Hook(CheckpointStage stage) const;
  void PublishWalMetrics();
  uint64_t ConfigFingerprint() const;
  std::string ShardDir(size_t shard) const;
  std::string WalPath(size_t shard, uint64_t generation) const;
  std::string SnapshotPath(uint64_t generation) const;
  std::string MetaPath() const;

  matching::ThresholdMatcher matcher_;
  ShardedResolverOptions options_;
  matching::SignatureOptions signature_options_;
  std::unique_ptr<matching::CrossStoreMatcher> cross_;

  // Deque: Shard is pinned (WAL fd) and pointers into it are captured by
  // the signature stores' description providers.
  std::deque<Shard> shards_;
  std::vector<incremental::IncrementalTokenIndex> token_shards_;
  SharedVocabulary vocabulary_;
  /// Global id -> row within its owning shard's store.
  std::vector<uint32_t> row_of_;

  util::UnionFind forest_{0};
  bool forest_dirty_ = false;
  std::unordered_map<model::EntityId, std::vector<model::EntityId>> members_;
  std::vector<model::EntityId> singleton_scratch_;

  std::vector<model::IdPair> matches_;
  ComparisonObserver observer_;
  uint64_t comparisons_ = 0;
  uint64_t candidates_ = 0;
  uint64_t merges_ = 0;
  uint64_t batches_ = 0;
  uint64_t removed_ = 0;
  uint64_t osn_next_ = 0;

  bool durable_ = false;
  storage::Status recovery_status_;
  uint64_t fingerprint_ = 0;
  uint32_t meta_version_ = 0;
  uint64_t generation_ = 0;
  // Recovery totals, published once recovery succeeds.
  uint64_t replayed_records_ = 0;
  uint64_t torn_tail_bytes_ = 0;
  // WAL totals (summed over shards) already published as counters.
  uint64_t published_wal_records_ = 0;
  uint64_t published_wal_bytes_ = 0;
  uint64_t published_wal_fsyncs_ = 0;
};

}  // namespace weber::serve

#endif  // WEBER_SERVE_SHARDED_RESOLVER_H_
