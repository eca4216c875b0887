#include "storage/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace weber::storage {
namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status(StorageErrc::kIoError,
                op + " " + path + ": " + std::strerror(errno));
}

/// write(2) until the span drains, tolerating short writes and EINTR.
Status WriteAll(int fd, std::span<const uint8_t> bytes,
                const std::string& path) {
  const uint8_t* data = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

std::string ParentDirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status MappedFile::Open(const std::string& path,
                        std::shared_ptr<MappedFile>* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ > 0) {
    void* mapping =
        ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping == MAP_FAILED) {
      Status status = Errno("mmap", path);
      ::close(fd);
      return status;
    }
    file->data_ = static_cast<const uint8_t*>(mapping);
  }
  ::close(fd);  // The mapping survives the descriptor.
  *out = std::move(file);
  return Status::Ok();
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  size_t offset = 0;
  while (offset < bytes.size()) {
    ssize_t n = ::read(fd, bytes.data() + offset, bytes.size() - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // Shrunk underneath us; keep what we got.
    offset += static_cast<size_t>(n);
  }
  bytes.resize(offset);
  ::close(fd);
  *out = std::move(bytes);
  return Status::Ok();
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink((path_ + ".tmp").c_str());
  }
}

Status AtomicFile::Open(const std::string& path) {
  if (fd_ >= 0) {
    return Status(StorageErrc::kIoError, "atomic file already open");
  }
  std::string tmp = path + ".tmp";
  fd_ = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return Errno("open", tmp);
  path_ = path;
  return Status::Ok();
}

Status AtomicFile::Append(std::span<const uint8_t> bytes) {
  if (fd_ < 0) return Status(StorageErrc::kIoError, "append on closed file");
  return WriteAll(fd_, bytes, path_ + ".tmp");
}

Status AtomicFile::AppendZeros(size_t count) {
  static constexpr uint8_t kZeros[4096] = {};
  while (count > 0) {
    size_t n = std::min(count, sizeof(kZeros));
    Status status = Append({kZeros, n});
    if (!status.ok()) return status;
    count -= n;
  }
  return Status::Ok();
}

Status AtomicFile::Commit() {
  if (fd_ < 0) return Status(StorageErrc::kIoError, "commit on closed file");
  std::string tmp = path_ + ".tmp";
  Status status = Status::Ok();
  if (::fsync(fd_) != 0) status = Errno("fsync", tmp);
  if (::close(fd_) != 0 && status.ok()) status = Errno("close", tmp);
  fd_ = -1;
  if (status.ok() && ::rename(tmp.c_str(), path_.c_str()) != 0) {
    status = Errno("rename", tmp);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncDirectory(ParentDirOf(path_));
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes) {
  AtomicFile file;
  Status status = file.Open(path);
  if (status.ok()) status = file.Append(bytes);
  if (status.ok()) status = file.Commit();
  return status;
}

Status AppendFile::Open(const std::string& path) {
  Close();
  bool existed = ::access(path.c_str(), F_OK) == 0;
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  if (fd_ < 0) return Errno("open", path);
  path_ = path;
  if (!existed) {
    // A WAL that exists but whose directory entry was lost to a crash is
    // a WAL that never happened; pin the entry before acking anything.
    Status status = SyncDirectory(ParentDirOf(path));
    if (!status.ok()) {
      Close();
      return status;
    }
  }
  return Status::Ok();
}

Status AppendFile::Append(std::span<const uint8_t> bytes) {
  if (fd_ < 0) return Status(StorageErrc::kIoError, "append on closed file");
  return WriteAll(fd_, bytes, path_);
}

Status AppendFile::Sync() {
  if (fd_ < 0) return Status(StorageErrc::kIoError, "sync on closed file");
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::Ok();
}

void AppendFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

bool DirectoryExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Status MakeDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir", path);
  }
  if (!DirectoryExists(path)) return Errno("mkdir", path);
  return Status::Ok();
}

Status ListDirectory(const std::string& path, std::vector<std::string>* out) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return Errno("opendir", path);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(dir);
  *out = std::move(names);
  return Status::Ok();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Errno("unlink", path);
  }
  return Status::Ok();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  Status status = Status::Ok();
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    status = Errno("ftruncate", path);
  }
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", path);
  ::close(fd);
  return status;
}

Status SyncDirectory(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  Status status = Status::Ok();
  if (::fsync(fd) != 0) status = Errno("fsync", path);
  ::close(fd);
  return status;
}

}  // namespace weber::storage
