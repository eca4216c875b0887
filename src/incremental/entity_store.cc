#include "incremental/entity_store.h"

#include <algorithm>
#include <cstring>

#include "storage/buffer.h"
#include "storage/entity_codec.h"
#include "util/check.h"

namespace weber::incremental {

uint8_t* EntityStore::Allocate(size_t size) {
  if (chunks_.empty() ||
      chunks_.back().capacity - chunks_.back().used < size) {
    Chunk chunk;
    chunk.capacity = std::max(size, kChunkBytes);
    chunk.bytes = std::make_unique_for_overwrite<uint8_t[]>(chunk.capacity);
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = chunks_.back();
  uint8_t* place = chunk.bytes.get() + chunk.used;
  chunk.used += size;
  return place;
}

EntityStore::Row EntityStore::Encode(
    const model::EntityDescription& description) {
  storage::ByteWriter counter = storage::ByteWriter::Counter();
  storage::EncodeDescription(description, &counter);
  WEBER_CHECK_LE(counter.size(), size_t{UINT32_MAX})
      << "description record over 4 GiB";
  uint8_t* place = Allocate(counter.size());
  storage::ByteWriter out = storage::ByteWriter::Into(place, counter.size());
  storage::EncodeDescription(description, &out);
  return Row{place, static_cast<uint32_t>(counter.size())};
}

std::string_view EntityStore::UriOf(const Row& row) {
  // A record leads with the URI: u32 length, then its bytes.
  uint32_t length = 0;
  std::memcpy(&length, row.data, sizeof(length));
  return {reinterpret_cast<const char*>(row.data) + sizeof(length), length};
}

model::EntityId EntityStore::Append(
    const model::EntityDescription& description) {
  // Ids are promised dense and stable for the store's lifetime: every
  // delta index and union-find downstream keys on them positionally.
  WEBER_CHECK_LT(rows_.size(), size_t{UINT32_MAX})
      << "EntityStore ran out of ids";
  const auto id = static_cast<model::EntityId>(rows_.size());
  rows_.push_back(Encode(description));
  std::string_view uri = UriOf(rows_.back());
  if (!uri.empty()) uri_index_.emplace(uri, id);
  alive_.push_back(1);
  versions_.push_back(0);
  ++live_;
  WEBER_DCHECK_EQ(alive_.size(), rows_.size())
      << "alive bitmap diverged from the row table";
  WEBER_DCHECK_EQ(versions_.size(), rows_.size())
      << "version array diverged from the row table";
  return id;
}

bool EntityStore::Update(model::EntityId id,
                         const model::EntityDescription& description) {
  if (!alive(id)) return false;
  std::string_view old_uri = UriOf(rows_[id]);
  rows_[id] = Encode(description);
  std::string_view uri = UriOf(rows_[id]);
  if (old_uri != uri) {
    auto it = uri_index_.find(old_uri);
    if (it != uri_index_.end() && it->second == id) uri_index_.erase(it);
    if (!uri.empty()) uri_index_[uri] = id;
  }
  ++versions_[id];
  ++updates_;
  return true;
}

bool EntityStore::Tombstone(model::EntityId id) {
  if (!alive(id)) return false;
  alive_[id] = 0;
  WEBER_DCHECK_GE(live_, size_t{1}) << "live count underflow on tombstone";
  --live_;
  auto it = uri_index_.find(UriOf(rows_[id]));
  if (it != uri_index_.end() && it->second == id) uri_index_.erase(it);
  return true;
}

model::EntityDescription EntityStore::at(model::EntityId id) const {
  std::span<const uint8_t> bytes = record(id);
  storage::ByteReader in(bytes.data(), bytes.size());
  model::EntityDescription description = storage::DecodeDescription(&in);
  WEBER_DCHECK(in.Exhausted()) << "store row " << id << " is not one record";
  return description;
}

StoreStats EntityStore::Stats() const {
  StoreStats stats;
  stats.total = rows_.size();
  WEBER_DCHECK_LE(live_, rows_.size())
      << "more live entities than the store ever appended";
  stats.live = live_;
  stats.tombstoned = rows_.size() - live_;
  stats.updates = updates_;
  return stats;
}

size_t EntityStore::ByteSize() const {
  size_t bytes = chunks_.capacity() * sizeof(Chunk);
  for (const Chunk& chunk : chunks_) bytes += chunk.capacity;
  bytes += rows_.capacity() * sizeof(Row) + alive_.capacity() +
           versions_.capacity() * sizeof(uint64_t);
  // A node holds the entry, its chain link and the cached hash.
  bytes += uri_index_.bucket_count() * sizeof(void*) +
           uri_index_.size() *
               (sizeof(decltype(uri_index_)::value_type) + 2 * sizeof(void*));
  return bytes;
}

std::optional<model::EntityId> EntityStore::FindByUri(
    std::string_view uri) const {
  auto it = uri_index_.find(uri);
  if (it == uri_index_.end()) return std::nullopt;
  return it->second;
}

void EntityStore::ForEachLive(
    const std::function<void(model::EntityId,
                             const model::EntityDescription&)>& visitor)
    const {
  for (model::EntityId id = 0; id < rows_.size(); ++id) {
    if (alive_[id]) visitor(id, at(id));
  }
}

model::EntityCollection EntityStore::Snapshot(
    std::vector<model::EntityId>* ids_out) const {
  model::EntityCollection snapshot;
  if (ids_out != nullptr) {
    ids_out->clear();
    ids_out->reserve(live_);
  }
  for (model::EntityId id = 0; id < rows_.size(); ++id) {
    if (!alive_[id]) continue;
    snapshot.Add(at(id));
    if (ids_out != nullptr) ids_out->push_back(id);
  }
  return snapshot;
}

}  // namespace weber::incremental
