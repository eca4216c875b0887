#ifndef WEBER_STORAGE_FILE_IO_H_
#define WEBER_STORAGE_FILE_IO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/status.h"

namespace weber::storage {

/// POSIX file plumbing of the durability layer. This file and the rest of
/// src/storage/ (plus model/io.h) are the only places in src/ allowed to
/// touch the filesystem — enforced by the weber_lint file-io rule — so
/// every fsync-ordering and atomicity decision lives here.

/// A read-only mmap of a whole file. Shared ownership: snapshot loads hand
/// the mapping to borrowed ArenaVecs as their keepalive, so the mapping
/// outlives the MappedFile handle for as long as any arena still points
/// into it.
class MappedFile {
 public:
  /// Maps `path` read-only. Empty files map successfully with size 0.
  static Status Open(const std::string& path,
                     std::shared_ptr<MappedFile>* out);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Reads a whole file into memory (the eager snapshot-load path).
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// A file streamed piece by piece into `path.tmp` that replaces `path`
/// only at Commit(): fsync the file, rename over `path`, fsync the parent
/// directory. A crash at any point leaves either the old file or the new
/// one, never a torn mix. Destroying an uncommitted file unlinks the temp.
class AtomicFile {
 public:
  AtomicFile() = default;
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Creates (truncating) `path.tmp` for writing.
  Status Open(const std::string& path);
  Status Append(std::span<const uint8_t> bytes);
  /// Appends `count` zero bytes (section padding).
  Status AppendZeros(size_t count);
  Status Commit();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Durably replaces `path` with `bytes` (an AtomicFile of one piece).
Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes);

/// An append-only file handle (the WAL). Append buffers nothing — every
/// call is one write(2) of the caller's group-committed frame — while
/// Sync() is the fsync point the policy layer schedules.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { Close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens `path` for appending, creating it (and durably registering the
  /// directory entry) if missing.
  Status Open(const std::string& path);
  Status Append(std::span<const uint8_t> bytes);
  Status Sync();
  void Close();
  bool is_open() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// True when `path` names an existing directory.
bool DirectoryExists(const std::string& path);

/// True when `path` names an existing regular file.
bool FileExists(const std::string& path);

/// Creates a directory (one level; the parent must exist). An already-
/// existing directory is not an error.
Status MakeDirectory(const std::string& path);

/// Lists the entry names of a directory (no ordering guarantee; "." and
/// ".." excluded).
Status ListDirectory(const std::string& path, std::vector<std::string>* out);

/// Removes a file; missing files are not an error.
Status RemoveFile(const std::string& path);

/// Shrinks a file to `size` bytes and fsyncs it — how WAL recovery drops
/// a torn tail record so later appends continue from a clean frame edge.
Status TruncateFile(const std::string& path, uint64_t size);

/// fsyncs a directory so renames/creates/unlinks inside it are durable.
Status SyncDirectory(const std::string& path);

}  // namespace weber::storage

#endif  // WEBER_STORAGE_FILE_IO_H_
