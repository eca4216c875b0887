#ifndef WEBER_STORAGE_WAL_H_
#define WEBER_STORAGE_WAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/file_io.h"
#include "storage/options.h"
#include "storage/status.h"

namespace weber::storage {

/// Append-only write-ahead log of resolver mutations.
///
/// File layout (little-endian):
///
///   header (24 bytes): magic "WEBERWAL", format version u32,
///                      header CRC32C u32, base op count u64
///   records:           { payload_len u32; crc u32; type u8; payload }
///
/// `base_op` is the op high-water mark of the snapshot this WAL extends —
/// replaying record k brings the resolver to op base_op + k + 1. Each
/// record's CRC32C covers the type byte and payload, so a flipped bit
/// anywhere in a frame is detected.
///
/// Torn-tail discipline: a crash mid-append leaves a final frame that is
/// short or fails its CRC. ReadWal reports such a tail as `torn_bytes`
/// (the caller truncates it and the ops it held were simply never acked)
/// — but a bad frame *followed by more bytes* cannot be a crash artifact
/// of an append-only log, so it fails closed with kWalCorrupt.
class WriteAheadLog {
 public:
  enum RecordType : uint8_t {
    kIngestBatch = 1,  // u32 count, then count EncodeDescription records.
    kRemove = 2,       // u32 entity id.
  };

  struct Record {
    uint8_t type = 0;
    /// Views the owning Contents' buffer.
    std::span<const uint8_t> payload;
  };

  /// The validated contents of a WAL file: the file image and its records,
  /// whose payloads view the image in place. Move-only, so the views
  /// always point into the Contents that owns them.
  struct Contents {
    Contents() = default;
    Contents(Contents&&) = default;
    Contents& operator=(Contents&&) = default;
    Contents(const Contents&) = delete;
    Contents& operator=(const Contents&) = delete;

    uint64_t base_op = 0;
    std::vector<Record> records;
    /// File size up to and including the last good frame.
    uint64_t good_size = 0;
    /// Bytes of torn tail past good_size (0 when the file is clean).
    uint64_t torn_bytes = 0;
    /// The whole file image the records view.
    std::vector<uint8_t> bytes;
  };

  /// Reads and validates the whole WAL. An empty file or one shorter than
  /// the header is a clean empty log (crash between WAL creation and its
  /// first sync); a torn final frame is reported via torn_bytes, interior
  /// corruption is kWalCorrupt. A missing file is an I/O error — callers
  /// decide whether absence is legal (see DurableResolver recovery). On
  /// any error `out` holds no records.
  static Status Read(const std::string& path, Contents* out);

  /// Parses a copy of an in-memory WAL image with Read's exact semantics
  /// (Read is ReadFileBytes + the same parse). Byte-level entry point:
  /// this is the surface the fuzz harness drives, so every validation path
  /// stays reachable without touching a filesystem.
  static Status Parse(std::span<const uint8_t> bytes, Contents* out);

  WriteAheadLog() = default;

  /// Creates a fresh WAL at `path` (truncating any leftover), writes the
  /// header and makes it durable.
  Status Create(const std::string& path, uint64_t base_op,
                FsyncPolicy policy, uint64_t batch_interval);

  /// Reopens an existing WAL for appending after recovery. `good_size`
  /// is Contents::good_size from Read — any torn tail beyond it is
  /// truncated away first.
  Status OpenExisting(const std::string& path, uint64_t good_size,
                      uint64_t file_size, FsyncPolicy policy,
                      uint64_t batch_interval);

  /// Appends one framed record and applies the fsync policy. The record
  /// is durable on return iff the policy flushed (kAlways, or kBatch on
  /// an interval boundary).
  Status Append(uint8_t type, const std::vector<uint8_t>& payload);

  /// Forces an fsync regardless of policy (checkpoint barrier).
  Status Sync();

  void Close();
  bool is_open() const { return file_.is_open(); }

  uint64_t appended_records() const { return appended_records_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  AppendFile file_;
  FsyncPolicy policy_ = FsyncPolicy::kBatch;
  uint64_t batch_interval_ = 64;
  uint64_t unsynced_records_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t fsyncs_ = 0;
};

}  // namespace weber::storage

#endif  // WEBER_STORAGE_WAL_H_
