#ifndef WEBER_STORAGE_BUFFER_H_
#define WEBER_STORAGE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace weber::storage {

/// Little-endian append-only byte sink for the snapshot manifest and WAL
/// payloads. Fixed-width scalars only — the encoding must be identical
/// across runs for the bit-equality digest, so nothing varint or
/// host-endian-dependent goes in (weber targets little-endian; the
/// on-disk arenas are raw memory either way).
class ByteWriter {
 public:
  /// A writer that keeps no bytes and only counts them, for EncodeExact.
  static ByteWriter Counter() {
    ByteWriter writer;
    writer.count_only_ = true;
    return writer;
  }

  void PutU8(uint8_t value) { PutRaw(&value, sizeof(value)); }
  void PutU32(uint32_t value) { PutRaw(&value, sizeof(value)); }
  void PutU64(uint64_t value) { PutRaw(&value, sizeof(value)); }
  void PutDouble(double value) { PutRaw(&value, sizeof(value)); }
  void PutString(const std::string& value) {
    PutU32(static_cast<uint32_t>(value.size()));
    PutRaw(value.data(), value.size());
  }
  void PutRaw(const void* data, size_t size) {
    if (count_only_) {
      counted_ += size;
      return;
    }
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  void Reserve(size_t size) { bytes_.reserve(size); }
  size_t size() const { return count_only_ ? counted_ : bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  bool count_only_ = false;
  size_t counted_ = 0;
};

/// Runs `encode(ByteWriter*)` twice: once into a Counter() for the exact
/// size, then into a writer reserved to it. A large manifest then never
/// passes through a doubling vector (up to twice its size, plus the copy
/// on each growth). `encode` must write the same bytes both times; work
/// that writes none, such as sorting, belongs outside it.
template <typename Encode>
std::vector<uint8_t> EncodeExact(const Encode& encode) {
  ByteWriter counter = ByteWriter::Counter();
  encode(&counter);
  ByteWriter out;
  out.Reserve(counter.size());
  encode(&out);
  return out.Take();
}

/// Bounds-checked reader over a borrowed byte range. Every Get sets the
/// failed flag instead of reading past the end; callers check failed()
/// once at the end of a decode (corrupt input then maps to one status).
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  uint8_t GetU8() {
    uint8_t value = 0;
    GetRaw(&value, sizeof(value));
    return value;
  }
  uint32_t GetU32() {
    uint32_t value = 0;
    GetRaw(&value, sizeof(value));
    return value;
  }
  uint64_t GetU64() {
    uint64_t value = 0;
    GetRaw(&value, sizeof(value));
    return value;
  }
  double GetDouble() {
    double value = 0;
    GetRaw(&value, sizeof(value));
    return value;
  }
  std::string GetString() {
    uint32_t size = GetU32();
    if (failed_ || size > size_ - offset_) {
      failed_ = true;
      return {};
    }
    std::string value(reinterpret_cast<const char*>(data_ + offset_), size);
    offset_ += size;
    return value;
  }
  void GetRaw(void* out, size_t size) {
    if (size == 0) return;  // `out` may be an empty vector's null data().
    if (failed_ || size > size_ - offset_) {
      failed_ = true;
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, data_ + offset_, size);
    offset_ += size;
  }

  bool failed() const { return failed_; }
  /// True when the reader consumed the range exactly, with no overruns.
  bool Exhausted() const { return !failed_ && offset_ == size_; }
  size_t remaining() const { return size_ - offset_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace weber::storage

#endif  // WEBER_STORAGE_BUFFER_H_
