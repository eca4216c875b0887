#include "storage/durable.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "obs/metrics.h"
#include "storage/buffer.h"
#include "storage/entity_codec.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::storage {
namespace {

std::string GenerationName(const char* stem, uint64_t generation) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s-%020llu", stem,
                static_cast<unsigned long long>(generation));
  return buffer;
}

/// Parses "<stem>-<20 digits>" names; anything else is not ours.
std::optional<uint64_t> ParseGeneration(const std::string& name,
                                        const char* stem) {
  std::string prefix = std::string(stem) + "-";
  if (name.size() != prefix.size() + 20 ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return value;
}

std::vector<uint8_t> EncodeIngestPayload(
    const std::vector<model::EntityDescription>& batch) {
  ByteWriter out;
  out.PutU32(static_cast<uint32_t>(batch.size()));
  for (const model::EntityDescription& description : batch) {
    EncodeDescription(description, &out);
  }
  return out.Take();
}

void HashBytes(uint64_t* hash, const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= 1099511628211ull;  // FNV-1a 64.
  }
}

void HashU64(uint64_t* hash, uint64_t value) {
  HashBytes(hash, &value, sizeof(value));
}

void HashString(uint64_t* hash, const std::string& value) {
  HashU64(hash, value.size());
  HashBytes(hash, value.data(), value.size());
}

}  // namespace

uint64_t DurableResolver::ConfigFingerprint(
    const matching::Matcher* matcher,
    const incremental::ResolverOptions& options) {
  uint64_t hash = 14695981039346656037ull;
  HashString(&hash, matcher->name());
  uint64_t threshold_bits = 0;
  std::memcpy(&threshold_bits, &options.match_threshold,
              sizeof(threshold_bits));
  HashU64(&hash, threshold_bits);
  // This slot and the empty string below hashed the options of an
  // incremental sorted-neighbourhood pass, since removed; their former
  // defaults stay in so existing data directories still recover.
  HashU64(&hash, 0);
  HashU64(&hash, options.merge_propagation ? 1 : 0);
  HashU64(&hash, options.prepared_matching ? 1 : 0);
  HashU64(&hash, options.index.normalize.lowercase ? 1 : 0);
  HashU64(&hash, options.index.normalize.strip_punctuation ? 1 : 0);
  HashU64(&hash, options.index.normalize.collapse_whitespace ? 1 : 0);
  HashU64(&hash, options.index.min_token_length);
  HashU64(&hash, options.index.max_block_size);
  HashString(&hash, "");
  return hash;
}

DurableResolver::DurableResolver(const matching::Matcher* matcher,
                                 incremental::ResolverOptions options,
                                 DurabilityOptions durability)
    : options_(options),
      durability_(std::move(durability)),
      fingerprint_(ConfigFingerprint(matcher, options)),
      resolver_(matcher, std::move(options)) {
  // Merge propagation scores merged representatives in in-memory merge
  // order, which WAL replay cannot reproduce — reject rather than
  // recover into a silently different state.
  WEBER_CHECK(!options_.merge_propagation)
      << "durability requires merge_propagation = false";
  util::Timer timer;
  recovery_status_ = Recover();
  if (recovery_status_.ok()) {
    PublishRecoveryMetrics(timer.ElapsedSeconds());
  }
}

DurableResolver::~DurableResolver() {
  if (wal_.is_open()) {
    wal_.Sync();  // Best effort: flush the tail of a kBatch/kOff log.
    wal_.Close();
  }
}

std::string DurableResolver::SnapshotPath(uint64_t generation) const {
  return durability_.data_dir + "/" + GenerationName("snapshot", generation);
}

std::string DurableResolver::WalPath(uint64_t generation) const {
  return durability_.data_dir + "/" + GenerationName("wal", generation);
}

Status DurableResolver::Recover() {
  if (durability_.data_dir.empty()) {
    return Status(StorageErrc::kIoError, "durability data_dir is empty");
  }
  if (!DirectoryExists(durability_.data_dir)) {
    return Status(StorageErrc::kIoError,
                  "durability data_dir does not exist: " +
                      durability_.data_dir);
  }
  std::vector<std::string> names;
  Status status = ListDirectory(durability_.data_dir, &names);
  if (!status.ok()) return status;

  std::vector<uint64_t> snapshots;
  std::vector<uint64_t> wals;
  for (const std::string& name : names) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A torn AtomicWriteFile; the rename never happened, so it holds
      // nothing the directory's committed files don't supersede.
      status = RemoveFile(durability_.data_dir + "/" + name);
      if (!status.ok()) return status;
      continue;
    }
    if (auto generation = ParseGeneration(name, "snapshot")) {
      snapshots.push_back(*generation);
    } else if (auto generation = ParseGeneration(name, "wal")) {
      wals.push_back(*generation);
    }
  }

  generation_ = 0;
  op_count_ = 0;
  if (!snapshots.empty()) {
    generation_ = *std::max_element(snapshots.begin(), snapshots.end());
    SnapshotCodec::LoadOptions load_options;
    load_options.mapped = durability_.map_snapshots;
    load_options.verify_arenas = durability_.verify_sections;
    status = SnapshotCodec::Load(SnapshotPath(generation_), fingerprint_,
                                 load_options, &resolver_, &op_count_);
    if (!status.ok()) return status;
  }
  if (!wals.empty()) {
    uint64_t newest_wal = *std::max_element(wals.begin(), wals.end());
    if (newest_wal > generation_) {
      // wal-G is only ever created after snapshot-G is durably renamed
      // (generation 0 aside), so a WAL beyond the newest snapshot means
      // the snapshot was lost — unrecoverable without guessing.
      return Status(StorageErrc::kWalCorrupt,
                    "WAL generation " + std::to_string(newest_wal) +
                        " has no matching snapshot");
    }
  }

  std::string wal_path = WalPath(generation_);
  if (FileExists(wal_path)) {
    WriteAheadLog::Contents contents;
    status = WriteAheadLog::Read(wal_path, &contents);
    if (!status.ok()) return status;
    if (!contents.records.empty() || contents.good_size > 0) {
      if (contents.base_op != op_count_) {
        return Status(StorageErrc::kWalCorrupt,
                      "WAL base op " + std::to_string(contents.base_op) +
                          " does not extend snapshot op " +
                          std::to_string(op_count_));
      }
    }
    // Replayed ops were counted as work when they were live; the replay
    // itself is counted by weber.storage.wal.replayed_records.
    resolver_.replaying_ = true;
    struct ReplayScope {
      bool& replaying;
      ~ReplayScope() { replaying = false; }
    } replay_scope{resolver_.replaying_};
    for (const WriteAheadLog::Record& record : contents.records) {
      ByteReader in(record.payload.data(), record.payload.size());
      if (record.type == WriteAheadLog::kIngestBatch) {
        uint32_t count = in.GetU32();
        std::vector<model::EntityDescription> batch;
        batch.reserve(count);
        for (uint32_t i = 0; i < count && !in.failed(); ++i) {
          batch.push_back(DecodeDescription(&in));
        }
        if (!in.Exhausted()) {
          return Status(StorageErrc::kWalCorrupt,
                        "malformed ingest record in WAL replay");
        }
        resolver_.Ingest(std::move(batch));
      } else if (record.type == WriteAheadLog::kRemove) {
        uint32_t id = in.GetU32();
        if (!in.Exhausted()) {
          return Status(StorageErrc::kWalCorrupt,
                        "malformed remove record in WAL replay");
        }
        resolver_.Remove(id);
      } else {
        return Status(StorageErrc::kWalCorrupt,
                      "unknown WAL record type " +
                          std::to_string(record.type));
      }
      ++op_count_;
    }
    replayed_records_ = contents.records.size();
    torn_tail_bytes_ = contents.torn_bytes;
    if (contents.good_size == 0 && contents.torn_bytes > 0) {
      // Header itself was torn; rewrite the log from scratch.
      status = wal_.Create(wal_path, op_count_, durability_.fsync,
                           durability_.batch_fsync_interval);
    } else {
      status = wal_.OpenExisting(
          wal_path, contents.good_size,
          contents.good_size + contents.torn_bytes, durability_.fsync,
          durability_.batch_fsync_interval);
    }
    if (!status.ok()) return status;
  } else {
    // Crash between snapshot rename and WAL creation (or a brand-new
    // directory): every op <= generation_ is in the snapshot.
    status = wal_.Create(wal_path, op_count_, durability_.fsync,
                         durability_.batch_fsync_interval);
    if (!status.ok()) return status;
  }

  // Stale generations are garbage once the newest one recovered.
  for (uint64_t generation : snapshots) {
    if (generation != generation_) {
      status = RemoveFile(SnapshotPath(generation));
      if (!status.ok()) return status;
    }
  }
  for (uint64_t generation : wals) {
    if (generation != generation_) {
      status = RemoveFile(WalPath(generation));
      if (!status.ok()) return status;
    }
  }
  return Status::Ok();
}

void DurableResolver::PublishRecoveryMetrics(double seconds) {
  obs::MetricsRegistry* registry =
      options_.metrics != nullptr ? options_.metrics : obs::Current();
  if (registry == nullptr) return;
  registry->GetHistogram("weber.storage.recovery_seconds").Record(seconds);
  registry->GetCounter("weber.storage.wal.replayed_records")
      .Add(replayed_records_);
  registry->GetCounter("weber.storage.wal.torn_tail_bytes")
      .Add(torn_tail_bytes_);
  registry->GetGauge("weber.storage.state_digest")
      .Set(static_cast<double>(SnapshotCodec::StateDigest(resolver_)));
}

std::vector<model::EntityId> DurableResolver::Ingest(
    std::vector<model::EntityDescription> batch) {
  WEBER_CHECK(healthy()) << "ingest on a failed durable resolver: "
                         << recovery_status_.ToString();
  // Log-then-apply: the op is on disk (per fsync policy) before any
  // in-memory state reflects it.
  Status status =
      wal_.Append(WriteAheadLog::kIngestBatch, EncodeIngestPayload(batch));
  WEBER_CHECK(status.ok()) << "WAL append failed: " << status.ToString();
  std::vector<model::EntityId> ids = resolver_.Ingest(std::move(batch));
  ++op_count_;
  PublishWalMetrics();
  MaybeCheckpoint();
  return ids;
}

bool DurableResolver::Remove(model::EntityId id) {
  WEBER_CHECK(healthy()) << "remove on a failed durable resolver: "
                         << recovery_status_.ToString();
  ByteWriter payload;
  payload.PutU32(id);
  Status status = wal_.Append(WriteAheadLog::kRemove, payload.Take());
  WEBER_CHECK(status.ok()) << "WAL append failed: " << status.ToString();
  bool removed = resolver_.Remove(id);
  ++op_count_;
  PublishWalMetrics();
  MaybeCheckpoint();
  return removed;
}

void DurableResolver::MaybeCheckpoint() {
  if (durability_.snapshot_every == 0) return;
  if (op_count_ - generation_ < durability_.snapshot_every) return;
  Status status = Checkpoint();
  WEBER_CHECK(status.ok()) << "checkpoint failed: " << status.ToString();
}

Status DurableResolver::Checkpoint() {
  if (!healthy()) return recovery_status_;
  util::Timer timer;
  // Streamed section by section into the temp file: the encode never holds
  // a second, file-sized copy of the state.
  AtomicFile file;
  SnapshotCodec::WriteInfo written;
  Status status = file.Open(SnapshotPath(op_count_));
  if (status.ok()) {
    status = SnapshotCodec::Write(resolver_, fingerprint_, op_count_, &file,
                                  &written);
  }
  if (status.ok()) status = file.Commit();
  if (!status.ok()) return status;
  uint64_t previous = generation_;
  generation_ = op_count_;
  status = wal_.Create(WalPath(generation_), op_count_, durability_.fsync,
                       durability_.batch_fsync_interval);
  if (!status.ok()) return status;
  if (previous != generation_) {
    status = RemoveFile(SnapshotPath(previous));
    if (status.ok()) status = RemoveFile(WalPath(previous));
    if (!status.ok()) return status;
  }

  obs::MetricsRegistry* registry =
      options_.metrics != nullptr ? options_.metrics : obs::Current();
  if (registry != nullptr) {
    registry->GetCounter("weber.storage.snapshots_written").Increment();
    registry->GetCounter("weber.storage.snapshot.bytes").Add(written.bytes);
    registry->GetHistogram("weber.storage.snapshot.write_seconds")
        .Record(timer.ElapsedSeconds());
    registry->GetGauge("weber.storage.state_digest")
        .Set(static_cast<double>(written.digest));
  }
  PublishWalMetrics();
  return Status::Ok();
}

void DurableResolver::PublishWalMetrics() {
  obs::MetricsRegistry* registry =
      options_.metrics != nullptr ? options_.metrics : obs::Current();
  if (registry == nullptr) return;
  registry->GetCounter("weber.storage.wal.appended_records")
      .Add(wal_.appended_records() - published_wal_records_);
  registry->GetCounter("weber.storage.wal.appended_bytes")
      .Add(wal_.appended_bytes() - published_wal_bytes_);
  registry->GetCounter("weber.storage.wal.fsyncs")
      .Add(wal_.fsyncs() - published_wal_fsyncs_);
  published_wal_records_ = wal_.appended_records();
  published_wal_bytes_ = wal_.appended_bytes();
  published_wal_fsyncs_ = wal_.fsyncs();
}

}  // namespace weber::storage
