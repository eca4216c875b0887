#ifndef WEBER_INCREMENTAL_ENTITY_STORE_H_
#define WEBER_INCREMENTAL_ENTITY_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/entity.h"

namespace weber::storage {
class SnapshotCodec;
}  // namespace weber::storage

namespace weber::incremental {

/// Point-in-time size counters of an EntityStore.
struct StoreStats {
  /// Ids ever issued (tombstoned included).
  size_t total = 0;
  /// Ids currently alive.
  size_t live = 0;
  /// Tombstoned ids.
  size_t tombstoned = 0;
  /// Update calls applied over the store's lifetime.
  uint64_t updates = 0;
};

/// The mutable description universe of an always-on resolver.
///
/// The batch pipeline treats its EntityCollection as immutable; a serving
/// deployment instead appends, revises and retires descriptions
/// continuously. The store keeps the collection's dense-id invariant —
/// Append issues ids in insertion order, so replaying the same entities
/// through a store reproduces the ids of the equivalent batch collection —
/// and adds the three mutations on top:
///   - Append: a new description under a fresh stable id;
///   - Update: replace the description behind an id (version bumped);
///   - Tombstone: retire an id. The id is never reused; downstream
///     consumers filter on alive().
///
/// Each row is held as its storage::EncodeDescription record — the bytes
/// WAL records, the snapshot's store manifest and the state digests carry —
/// in an append-only arena of fixed-size chunks. A record never straddles
/// two chunks (an oversized one gets a chunk of its own), and written
/// bytes never move, so growth never copies the arena and the URI index
/// keys view the records in place. at() decodes a row on every call;
/// resolvers absorb the incoming batch and score interned signatures, so
/// only the string scoring path reads rows back. Update appends the new record
/// and repoints the row; the old bytes stay behind as garbage (counted by
/// ByteSize()).
class EntityStore {
 public:
  EntityStore() = default;
  // Rows and URI keys point into the chunks: a copy would alias them.
  EntityStore(const EntityStore&) = delete;
  EntityStore& operator=(const EntityStore&) = delete;
  EntityStore(EntityStore&&) = default;
  EntityStore& operator=(EntityStore&&) = default;

  /// Appends a description and returns its stable id (dense, insertion
  /// order — identical to EntityCollection::Add on the same stream).
  model::EntityId Append(const model::EntityDescription& description);

  /// Replaces the description behind `id` and bumps its version. Returns
  /// false (and changes nothing) for unknown or tombstoned ids.
  bool Update(model::EntityId id, const model::EntityDescription& description);

  /// Retires `id`. Returns false if the id is unknown or already dead.
  bool Tombstone(model::EntityId id);

  /// True if the id was issued and not tombstoned.
  bool alive(model::EntityId id) const {
    return id < alive_.size() && alive_[id];
  }

  /// The description behind an issued id (tombstoned ones included —
  /// callers gate on alive()), decoded from its record.
  model::EntityDescription at(model::EntityId id) const;

  /// The EncodeDescription record of an issued id, in place.
  std::span<const uint8_t> record(model::EntityId id) const {
    WEBER_DCHECK_LT(size_t{id}, rows_.size()) << "entity id outside the store";
    return {rows_[id].data, rows_[id].size};
  }

  /// Monotonic per-id revision counter: 0 at Append, +1 per Update.
  uint64_t version(model::EntityId id) const { return versions_[id]; }

  /// Ids ever issued.
  size_t size() const { return rows_.size(); }
  size_t live_count() const { return live_; }
  bool empty() const { return rows_.empty(); }

  StoreStats Stats() const;

  /// Heap bytes the store holds: arena chunks, the row table (with the
  /// alive flags and versions) and the URI index — the
  /// weber.incremental.store_bytes gauge.
  size_t ByteSize() const;

  /// Id of the live description with the given URI, if any. Unlike the
  /// collection's lazy index this one tracks Update/Tombstone.
  std::optional<model::EntityId> FindByUri(std::string_view uri) const;

  /// Visits every live description in id order.
  void ForEachLive(
      const std::function<void(model::EntityId,
                               const model::EntityDescription&)>& visitor)
      const;

  /// Copies the live descriptions into a fresh dirty collection (snapshot
  /// iteration for batch consumers). When ids_out != nullptr it receives,
  /// per snapshot id, the originating store id.
  model::EntityCollection Snapshot(
      std::vector<model::EntityId>* ids_out = nullptr) const;

 private:
  friend class weber::storage::SnapshotCodec;

  /// Chunk size of the arena; a larger record gets a chunk of its own.
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  struct Chunk {
    std::unique_ptr<uint8_t[]> bytes;
    size_t used = 0;
    size_t capacity = 0;
  };
  struct Row {
    const uint8_t* data = nullptr;
    uint32_t size = 0;
  };

  /// `size` bytes of arena that no record occupies, within one chunk.
  uint8_t* Allocate(size_t size);
  /// Encodes `description` into the arena.
  Row Encode(const model::EntityDescription& description);
  /// The URI field of a record, viewing the arena.
  static std::string_view UriOf(const Row& row);

  std::vector<Chunk> chunks_;
  std::vector<Row> rows_;
  std::vector<uint8_t> alive_;
  std::vector<uint64_t> versions_;
  std::unordered_map<std::string_view, model::EntityId> uri_index_;
  size_t live_ = 0;
  uint64_t updates_ = 0;
};

}  // namespace weber::incremental

#endif  // WEBER_INCREMENTAL_ENTITY_STORE_H_
