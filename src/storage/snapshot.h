#ifndef WEBER_STORAGE_SNAPSHOT_H_
#define WEBER_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/status.h"

namespace weber::incremental {
class EntityStore;
class IncrementalResolver;
class IncrementalTokenIndex;
}  // namespace weber::incremental

namespace weber::matching {
class SignatureStore;
}  // namespace weber::matching

namespace weber::storage {

class AtomicFile;
/// A parsed snapshot image (header, section directory, backing bytes or
/// mapping); defined in snapshot.cc.
struct ParsedImage;

/// Versioned, CRC-framed, mmap-able snapshot of an IncrementalResolver.
///
/// One file, little-endian, laid out as:
///
///   [0, header_len)      header: magic "WEBERSNP", format version,
///                        header CRC32C, config fingerprint, op count,
///                        file size, and the section directory
///   page-aligned payloads, one per directory entry, each independently
///   CRC32C-framed
///
/// Sections come in two flavours. *Manifest* sections are deterministic
/// byte streams (strings, maps, counters) decoded eagerly on load.
/// *Arena* sections are the flat trivially-copyable arenas of the
/// signature engine written in their exact in-memory layout; a mapped
/// load points the store's ArenaVecs straight into the mapping
/// (zero-copy — see util/arena_vec.h), and the page-aligned offsets
/// guarantee every element type's alignment. The vocabulary ships as a
/// packed blob + offsets pair that hydrates lazily on the first post-load
/// intern, keeping the mapped open O(1) in vocabulary size.
///
/// Everything encoded is deterministic for a given logical state (URI
/// index entries sorted, padding-free structs, fixed field order) except
/// the one `kAnnex` section, which carries delta-index lifetime counters
/// that legitimately differ between a recovered process and one that
/// never crashed. The state digest is the CRC32C chain over every
/// non-annex section payload — the bit-equality witness of the crash
/// recovery tests.
///
/// The same container carries composed images: Writer and Reader work per
/// component (entity store, signature arenas, token index, opaque caller
/// manifests), and a `tag` keeps several copies of one component apart —
/// the sharded resolver writes one store, signature set and token index
/// per shard into a single file. Tag 0 is the single-store image's own
/// section kinds, so the IncrementalResolver format is unchanged.
class SnapshotCodec {
 public:
  /// Current format version; bumping it makes every older weber refuse
  /// the file with kBadVersion (fail closed, never misparse).
  static constexpr uint32_t kFormatVersion = 1;

  /// Section kinds from here up are free for callers' opaque manifests
  /// (Writer::AddBytes / Reader::Bytes); the codec never writes them.
  static constexpr uint32_t kFirstCallerKind = 64;

  struct LoadOptions {
    /// Borrow arena sections from an mmap of the file instead of copying
    /// them out (the first mutation of a borrowed arena detaches).
    bool mapped = true;
    /// CRC-check every section payload. Recovery keeps this on; the
    /// zero-copy open path may turn it off to stay O(1) in file size
    /// (header and manifest sections are always verified).
    bool verify_arenas = true;
  };

  /// What a streamed write produced: the file size and the image digest
  /// (ImageDigest of the same bytes).
  struct WriteInfo {
    uint64_t bytes = 0;
    uint32_t digest = 0;
  };

  /// Collects the sections of one image. Arena sections borrow the
  /// components' memory, so the components must not change until the
  /// image is encoded or written.
  class Writer {
   public:
    Writer() = default;
    // A copy's sections would still point into the original's buffers.
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;
    Writer(Writer&&) = default;
    Writer& operator=(Writer&&) = default;

    void AddStore(uint32_t tag, const incremental::EntityStore& store);
    void AddSignatures(uint32_t tag, const matching::SignatureStore& store);
    void AddTokenIndex(uint32_t tag,
                       const incremental::IncrementalTokenIndex& index);
    /// An opaque manifest section (kind >= kFirstCallerKind for callers).
    void AddBytes(uint32_t kind, std::vector<uint8_t> bytes);

    /// The image in memory.
    std::vector<uint8_t> Encode(uint64_t config_fingerprint,
                                uint64_t op_count) const;
    /// Streams the header and then each section into `file` without
    /// materialising the image; the bytes equal Encode()'s. The caller
    /// commits the file.
    Status Write(AtomicFile* file, uint64_t config_fingerprint,
                 uint64_t op_count, WriteInfo* info) const;
    /// ImageDigest of the image, computed from the sections in place.
    uint32_t Digest() const;

   private:
    struct Section {
      uint32_t kind = 0;
      const uint8_t* data = nullptr;
      size_t size = 0;
    };
    template <typename T>
    void AddArena(uint32_t kind, const T* data, size_t count) {
      sections_.push_back({kind, reinterpret_cast<const uint8_t*>(data),
                           count * sizeof(T)});
    }
    template <typename Sink>
    Status Emit(uint64_t config_fingerprint, uint64_t op_count,
                Sink& sink) const;

    // Manifest bytes the sections point into (inner buffers never move).
    std::vector<std::vector<uint8_t>> owned_;
    std::vector<Section> sections_;
  };

  /// An opened, verified image, restored component by component. The
  /// Restore calls are const and touch disjoint components, so callers may
  /// run them concurrently.
  class Reader {
   public:
    Reader();
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Maps (or reads) `path`, checks the header and the fingerprint, and
    /// CRC-verifies the sections per `options`.
    Status Open(const std::string& path, uint64_t config_fingerprint,
                const LoadOptions& options);

    uint64_t op_count() const;
    bool HasSignatures(uint32_t tag) const;
    /// The payload of an opaque section; kCorruptSection when missing.
    Status Bytes(uint32_t kind, std::span<const uint8_t>* out) const;

    Status RestoreStore(uint32_t tag, incremental::EntityStore* store) const;
    /// Replaces the store's contents; its options and description provider
    /// (configured by the owner) are kept.
    Status RestoreSignatures(uint32_t tag,
                             matching::SignatureStore* store) const;
    Status RestoreTokenIndex(uint32_t tag,
                             incremental::IncrementalTokenIndex* index) const;

   private:
    std::unique_ptr<ParsedImage> image_;
    LoadOptions options_;
  };

  /// Serializes the full resolver state into a snapshot image.
  /// `config_fingerprint` binds the file to the resolver configuration
  /// that produced it; `op_count` is the durable-op high-water mark the
  /// image represents.
  static std::vector<uint8_t> Encode(
      const incremental::IncrementalResolver& resolver,
      uint64_t config_fingerprint, uint64_t op_count);

  /// Encode, streamed into `file` (see Writer::Write).
  static Status Write(const incremental::IncrementalResolver& resolver,
                      uint64_t config_fingerprint, uint64_t op_count,
                      AtomicFile* file, WriteInfo* info);

  /// Restores `resolver` — constructed with the same matcher and options
  /// as the writer — from the snapshot at `path`. On success `*op_count`
  /// receives the image's op high-water mark. On failure the resolver is
  /// left in an unspecified state and must be discarded.
  static Status Load(const std::string& path, uint64_t config_fingerprint,
                     const LoadOptions& options,
                     incremental::IncrementalResolver* resolver,
                     uint64_t* op_count);

  /// Restores only the signature-engine state (arenas + vocabulary) into
  /// a bare SignatureStore — the O(1) zero-copy open used by tooling and
  /// bench_storage to measure load time independent of entity count.
  /// The store is read-only in spirit: it has no description provider
  /// and default options, but posting/tfidf/token accessors all work.
  static Status OpenSignatures(const std::string& path,
                               const LoadOptions& options,
                               matching::SignatureStore* store);

  /// CRC32C chain over the digest-covered (non-annex) sections of an
  /// already-encoded image. Two resolvers with bit-equal durable state
  /// produce equal digests.
  static Status ImageDigest(std::span<const uint8_t> image,
                            uint32_t* digest);

  /// Digest of `resolver`'s current state (without materialising the
  /// image).
  static uint32_t StateDigest(
      const incremental::IncrementalResolver& resolver);

 private:
  // Encode/decode helpers live here (snapshot.cc): as a nested class Impl
  // shares the codec's access rights, so the friend grants on the stores
  // extend to it without friending every helper individually.
  struct Impl;
  static Writer ResolverWriter(const incremental::IncrementalResolver&
                                   resolver);
};

}  // namespace weber::storage

#endif  // WEBER_STORAGE_SNAPSHOT_H_
