#include "storage/wal.h"

#include <cstring>

#include "storage/crc32c.h"
#include "storage/file_io.h"

namespace weber::storage {
namespace {

constexpr uint64_t kWalMagic = 0x4C41575245424557ull;  // "WEBERWAL"
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 24;
constexpr size_t kFrameOverhead = 9;  // len u32 + crc u32 + type u8.

std::vector<uint8_t> EncodeHeader(uint64_t base_op) {
  std::vector<uint8_t> header(kWalHeaderBytes, 0);
  uint32_t version = kWalVersion;
  std::memcpy(header.data(), &kWalMagic, 8);
  std::memcpy(header.data() + 8, &version, 4);
  std::memcpy(header.data() + 16, &base_op, 8);
  uint32_t crc = Crc32c(header.data(), header.size());
  std::memcpy(header.data() + 12, &crc, 4);
  return header;
}

/// Validates `out->bytes` and fills the rest of `out` with views into it.
/// On error `out` may hold the records before the failure.
Status ParseFrames(WriteAheadLog::Contents* out) {
  std::span<const uint8_t> bytes = out->bytes;
  if (bytes.size() < kWalHeaderBytes) {
    // Crash between creating the WAL and syncing its header: no record
    // was ever acknowledged, so this is a clean empty log.
    out->torn_bytes = bytes.size();
    return Status::Ok();
  }
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t header_crc = 0;
  std::memcpy(&magic, bytes.data(), 8);
  if (magic != kWalMagic) {
    return Status(StorageErrc::kBadMagic, "not a weber WAL file");
  }
  std::memcpy(&version, bytes.data() + 8, 4);
  if (version != kWalVersion) {
    return Status(StorageErrc::kBadVersion,
                  "WAL format v" + std::to_string(version) +
                      "; this build reads v" + std::to_string(kWalVersion));
  }
  std::memcpy(&header_crc, bytes.data() + 12, 4);
  std::memcpy(&out->base_op, bytes.data() + 16, 8);
  std::vector<uint8_t> header(bytes.begin(), bytes.begin() + kWalHeaderBytes);
  std::memset(header.data() + 12, 0, 4);
  if (Crc32c(header.data(), header.size()) != header_crc) {
    return Status(StorageErrc::kWalCorrupt, "WAL header fails its CRC32C");
  }

  size_t offset = kWalHeaderBytes;
  out->good_size = offset;
  while (offset < bytes.size()) {
    bool torn = false;
    if (bytes.size() - offset < kFrameOverhead) {
      torn = true;  // Short frame header.
    } else {
      uint32_t payload_len = 0;
      uint32_t crc = 0;
      std::memcpy(&payload_len, bytes.data() + offset, 4);
      std::memcpy(&crc, bytes.data() + offset + 4, 4);
      size_t frame = kFrameOverhead + size_t{payload_len};
      if (bytes.size() - offset < frame) {
        torn = true;  // Frame extends past EOF.
      } else if (Crc32c(bytes.data() + offset + 8, payload_len + 1) != crc) {
        torn = true;  // Bit rot or a torn-in-place final frame.
      } else {
        WriteAheadLog::Record record;
        record.type = bytes[offset + 8];
        record.payload = bytes.subspan(offset + 9, payload_len);
        out->records.push_back(record);
        offset += frame;
        out->good_size = offset;
        continue;
      }
    }
    if (torn) {
      // Only the *final* frame may be torn: this is an append-only log,
      // so damage with more bytes behind it is corruption, not a crash.
      uint64_t tail = bytes.size() - out->good_size;
      bool is_final = true;
      // A torn frame whose claimed length points past EOF is final by
      // construction; a CRC failure is final only if no complete frame
      // parses after it. Scanning forward would risk resynchronising on
      // garbage, so treat any bytes beyond the failed frame's own claim
      // as interior corruption.
      if (bytes.size() - offset >= kFrameOverhead) {
        uint32_t payload_len = 0;
        std::memcpy(&payload_len, bytes.data() + offset, 4);
        size_t frame = kFrameOverhead + size_t{payload_len};
        if (bytes.size() - offset > frame) is_final = false;
      }
      if (!is_final) {
        return Status(StorageErrc::kWalCorrupt,
                      "WAL record at offset " + std::to_string(offset) +
                          " fails its CRC32C with records after it");
      }
      out->torn_bytes = tail;
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status ParseImage(WriteAheadLog::Contents* out) {
  Status status = ParseFrames(out);
  // Fail closed: a rejected image surrenders no records.
  if (!status.ok()) out->records.clear();
  return status;
}

}  // namespace

Status WriteAheadLog::Read(const std::string& path, Contents* out) {
  *out = Contents{};
  Status status = ReadFileBytes(path, &out->bytes);
  if (!status.ok()) return status;
  return ParseImage(out);
}

Status WriteAheadLog::Parse(std::span<const uint8_t> bytes, Contents* out) {
  *out = Contents{};
  out->bytes.assign(bytes.begin(), bytes.end());
  return ParseImage(out);
}

Status WriteAheadLog::Create(const std::string& path, uint64_t base_op,
                             FsyncPolicy policy, uint64_t batch_interval) {
  Close();
  // Start from nothing: a leftover file would splice old records after
  // the new header.
  Status status = RemoveFile(path);
  if (!status.ok()) return status;
  status = file_.Open(path);
  if (!status.ok()) return status;
  policy_ = policy;
  batch_interval_ = batch_interval == 0 ? 1 : batch_interval;
  unsynced_records_ = 0;
  std::vector<uint8_t> header = EncodeHeader(base_op);
  status = file_.Append(header);
  if (status.ok()) status = file_.Sync();  // Header durability is not optional.
  if (!status.ok()) {
    Close();
    return status;
  }
  appended_bytes_ += header.size();
  ++fsyncs_;
  return Status::Ok();
}

Status WriteAheadLog::OpenExisting(const std::string& path,
                                   uint64_t good_size, uint64_t file_size,
                                   FsyncPolicy policy,
                                   uint64_t batch_interval) {
  Close();
  if (good_size < file_size) {
    Status status = TruncateFile(path, good_size);
    if (!status.ok()) return status;
  }
  Status status = file_.Open(path);
  if (!status.ok()) return status;
  policy_ = policy;
  batch_interval_ = batch_interval == 0 ? 1 : batch_interval;
  unsynced_records_ = 0;
  return Status::Ok();
}

Status WriteAheadLog::Append(uint8_t type,
                             const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame(kFrameOverhead + payload.size());
  uint32_t payload_len = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.data(), &payload_len, 4);
  frame[8] = type;
  if (!payload.empty()) {
    std::memcpy(frame.data() + 9, payload.data(), payload.size());
  }
  uint32_t crc = Crc32c(frame.data() + 8, payload.size() + 1);
  std::memcpy(frame.data() + 4, &crc, 4);
  Status status = file_.Append(frame);
  if (!status.ok()) return status;
  ++appended_records_;
  appended_bytes_ += frame.size();
  ++unsynced_records_;
  bool flush = policy_ == FsyncPolicy::kAlways ||
               (policy_ == FsyncPolicy::kBatch &&
                unsynced_records_ >= batch_interval_);
  if (flush) return Sync();
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  if (unsynced_records_ == 0) return Status::Ok();
  Status status = file_.Sync();
  if (!status.ok()) return status;
  unsynced_records_ = 0;
  ++fsyncs_;
  return Status::Ok();
}

void WriteAheadLog::Close() {
  file_.Close();
  unsynced_records_ = 0;
}

}  // namespace weber::storage
