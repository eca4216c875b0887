#include "storage/snapshot.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "incremental/resolver.h"
#include "storage/buffer.h"
#include "storage/crc32c.h"
#include "storage/entity_codec.h"
#include "storage/file_io.h"
#include "util/check.h"

namespace weber::storage {

struct SectionEntry {
  uint32_t kind = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
};

struct ParsedImage {
  const uint8_t* data = nullptr;
  size_t size = 0;
  uint64_t config_fingerprint = 0;
  uint64_t op_count = 0;
  std::vector<SectionEntry> sections;
  // Keepalive for borrowed arenas (null on the eager path).
  std::shared_ptr<MappedFile> mapping;
  // Backing bytes of the eager path.
  std::vector<uint8_t> bytes;

  const SectionEntry* Find(uint32_t kind) const {
    for (const SectionEntry& section : sections) {
      if (section.kind == kind) return &section;
    }
    return nullptr;
  }
  const uint8_t* SectionData(const SectionEntry& section) const {
    return data + section.offset;
  }
};

namespace {

constexpr uint64_t kSnapshotMagic = 0x504E535245424557ull;  // "WEBERSNP"
constexpr size_t kPageSize = 4096;
constexpr size_t kHeaderFixedBytes = 48;
constexpr size_t kSectionEntryBytes = 24;

/// Section inventory. Manifest sections are decoded eagerly; arena
/// sections are raw element arrays eligible for zero-copy borrowing.
enum SectionKind : uint32_t {
  kStoreManifest = 1,
  kResolverManifest = 2,
  kSigManifest = 3,
  kAnnex = 4,  // Digest-excluded (delta-index lifetime counters).
  kSigEntries = 5,
  kSigPostingChunks = 6,
  kSigPostingArrays = 7,
  kSigPostingBitsets = 8,
  kSigTokens = 9,
  kSigTfIdf = 10,
  kSigAttrSlots = 11,
  kVocabBlob = 12,
  kVocabOffsets = 13,
  kTokenIndex = 14,  // Composed images only (Writer::AddTokenIndex).
};

// A composed image keeps per-component copies apart by tagging the kind's
// high bits; tag 0 leaves the single-store image's kinds as they were.
constexpr uint32_t kTagShift = 16;

uint32_t Tagged(uint32_t kind, uint32_t tag) {
  return kind | (tag << kTagShift);
}

uint32_t BaseKind(uint32_t kind) {
  return kind & ((uint32_t{1} << kTagShift) - 1);
}

bool IsArena(uint32_t kind) {
  return BaseKind(kind) >= kSigEntries && BaseKind(kind) <= kVocabOffsets;
}

const char* SectionName(uint32_t kind) {
  switch (BaseKind(kind)) {
    case kStoreManifest: return "store-manifest";
    case kResolverManifest: return "resolver-manifest";
    case kSigManifest: return "signature-manifest";
    case kAnnex: return "annex";
    case kSigEntries: return "signature-entries";
    case kSigPostingChunks: return "posting-chunks";
    case kSigPostingArrays: return "posting-arrays";
    case kSigPostingBitsets: return "posting-bitsets";
    case kSigTokens: return "attribute-tokens";
    case kSigTfIdf: return "tfidf-terms";
    case kSigAttrSlots: return "attribute-slots";
    case kVocabBlob: return "vocabulary-blob";
    case kVocabOffsets: return "vocabulary-offsets";
    case kTokenIndex: return "token-index";
  }
  return "unknown";
}

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

static_assert(std::is_trivially_copyable_v<model::IdPair> &&
                  sizeof(model::IdPair) == 8,
              "IdPair is framed raw in the resolver manifest");

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

Status CorruptSection(uint32_t kind, const std::string& detail) {
  return Status(StorageErrc::kCorruptSection,
                std::string("section ") + SectionName(kind) + ": " + detail);
}

Status ParseHeader(ParsedImage* image) {
  if (image->size < kHeaderFixedBytes) {
    return Status(StorageErrc::kCorruptHeader,
                  "file smaller than the snapshot header");
  }
  auto get = [image](size_t at, void* out, size_t size) {
    std::memcpy(out, image->data + at, size);
  };
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t header_crc = 0;
  uint64_t file_size = 0;
  uint32_t section_count = 0;
  get(0, &magic, 8);
  if (magic != kSnapshotMagic) {
    return Status(StorageErrc::kBadMagic, "not a weber snapshot file");
  }
  get(8, &version, 4);
  if (version != SnapshotCodec::kFormatVersion) {
    return Status(StorageErrc::kBadVersion,
                  "snapshot format v" + std::to_string(version) +
                      "; this build reads v" +
                      std::to_string(SnapshotCodec::kFormatVersion));
  }
  get(12, &header_crc, 4);
  get(16, &image->config_fingerprint, 8);
  get(24, &image->op_count, 8);
  get(32, &file_size, 8);
  get(40, &section_count, 4);
  size_t header_len =
      kHeaderFixedBytes + size_t{section_count} * kSectionEntryBytes;
  if (header_len > image->size || file_size != image->size) {
    return Status(StorageErrc::kCorruptHeader,
                  "snapshot truncated: header claims " +
                      std::to_string(file_size) + " bytes, file has " +
                      std::to_string(image->size));
  }
  std::vector<uint8_t> header(image->data, image->data + header_len);
  std::memset(header.data() + 12, 0, 4);
  if (Crc32c(header.data(), header_len) != header_crc) {
    return Status(StorageErrc::kCorruptHeader,
                  "snapshot header fails its CRC32C");
  }
  image->sections.resize(section_count);
  for (size_t i = 0; i < section_count; ++i) {
    size_t at = kHeaderFixedBytes + i * kSectionEntryBytes;
    get(at, &image->sections[i].kind, 4);
    get(at + 4, &image->sections[i].crc, 4);
    get(at + 8, &image->sections[i].offset, 8);
    get(at + 16, &image->sections[i].size, 8);
    const SectionEntry& section = image->sections[i];
    if (section.offset > image->size ||
        section.size > image->size - section.offset) {
      return Status(StorageErrc::kCorruptHeader,
                    std::string("section ") + SectionName(section.kind) +
                        " extends past end of file");
    }
  }
  return Status::Ok();
}

Status VerifySection(const ParsedImage& image, const SectionEntry& section) {
  if (Crc32c(image.SectionData(section), section.size) != section.crc) {
    return Status(StorageErrc::kCorruptSection,
                  std::string("section ") + SectionName(section.kind) +
                      " fails its CRC32C");
  }
  return Status::Ok();
}

Status VerifyAll(const ParsedImage& image, bool verify_arenas) {
  for (const SectionEntry& section : image.sections) {
    if (IsArena(section.kind) && !verify_arenas) continue;
    Status status = VerifySection(image, section);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status OpenImage(const std::string& path, bool mapped, ParsedImage* image) {
  if (mapped) {
    Status status = MappedFile::Open(path, &image->mapping);
    if (!status.ok()) return status;
    image->data = image->mapping->data();
    image->size = image->mapping->size();
  } else {
    Status status = ReadFileBytes(path, &image->bytes);
    if (!status.ok()) return status;
    image->data = image->bytes.data();
    image->size = image->bytes.size();
  }
  return ParseHeader(image);
}

/// Restores one arena: borrowed straight from the mapping when the load
/// is mapped, copied out otherwise. An empty arena never borrows (it would
/// pin the whole mapping for nothing). The element count must divide
/// evenly or the section is corrupt.
template <typename T>
Status RestoreArena(const ParsedImage& image, uint32_t kind,
                    util::ArenaVec<T>* arena) {
  const SectionEntry* section = image.Find(kind);
  if (section == nullptr) return CorruptSection(kind, "section missing");
  if (section->size % sizeof(T) != 0) {
    return CorruptSection(kind, "size not a multiple of the element size");
  }
  size_t count = section->size / sizeof(T);
  const uint8_t* data = image.SectionData(*section);
  if (image.mapping != nullptr && count > 0) {
    *arena = util::ArenaVec<T>::Borrowed(reinterpret_cast<const T*>(data),
                                         count, image.mapping);
  } else {
    std::vector<T> owned(count);
    // An empty section leaves owned.data() null, which memcpy must not see.
    if (count > 0) std::memcpy(owned.data(), data, section->size);
    arena->Assign(std::move(owned));
  }
  return Status::Ok();
}

struct SigManifest {
  uint64_t vocab_count = 0;
  std::vector<std::string> values;
  uint64_t released_bytes = 0;
  uint64_t array_chunks = 0;
  uint64_t bitset_chunks = 0;
};

Status DecodeSigManifest(const ParsedImage& image, uint32_t kind,
                         SigManifest* manifest) {
  const SectionEntry* section = image.Find(kind);
  if (section == nullptr) return CorruptSection(kind, "section missing");
  ByteReader in(image.SectionData(*section), section->size);
  manifest->vocab_count = in.GetU64();
  uint64_t value_count = in.GetU64();
  for (uint64_t i = 0; i < value_count && !in.failed(); ++i) {
    manifest->values.push_back(in.GetString());
  }
  manifest->released_bytes = in.GetU64();
  manifest->array_chunks = in.GetU64();
  manifest->bitset_chunks = in.GetU64();
  if (!in.Exhausted()) {
    return CorruptSection(kind, "malformed signature manifest");
  }
  return Status::Ok();
}

Status DecodeResolverManifest(std::span<const uint8_t> bytes,
                              std::vector<model::IdPair>* matches,
                              uint64_t counters[6],
                              std::vector<std::string>* purged) {
  ByteReader in(bytes.data(), bytes.size());
  uint64_t match_count = in.GetU64();
  if (in.failed() || match_count * sizeof(model::IdPair) > in.remaining()) {
    return CorruptSection(kResolverManifest, "truncated match list");
  }
  matches->resize(match_count);
  in.GetRaw(matches->data(), match_count * sizeof(model::IdPair));
  for (size_t i = 0; i < 6; ++i) counters[i] = in.GetU64();
  uint64_t purged_count = in.GetU64();
  for (uint64_t i = 0; i < purged_count && !in.failed(); ++i) {
    purged->push_back(in.GetString());
  }
  if (!in.Exhausted()) {
    return CorruptSection(kResolverManifest, "malformed resolver manifest");
  }
  return Status::Ok();
}

Status DecodeAnnex(std::span<const uint8_t> bytes,
                   incremental::DeltaIndexStats* stats) {
  ByteReader in(bytes.data(), bytes.size());
  stats->updates = in.GetU64();
  stats->full_builds = in.GetU64();
  stats->purged_tokens = in.GetU64();
  stats->tokens = static_cast<size_t>(in.GetU64());
  if (!in.Exhausted()) return CorruptSection(kAnnex, "malformed annex");
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Friend-access helpers. As a nested class, Impl shares the codec's access
// rights, so the friend grants on the stores cover it without friending
// every helper individually.
// ---------------------------------------------------------------------------

struct SnapshotCodec::Impl {
  using UriEntry = std::pair<std::string_view, model::EntityId>;

  // The URI index by content, sorted by URI: its entries are history-
  // dependent (first-wins on Append, conditional erase on Update/
  // Tombstone), so rebuilding it from the live rows would not be bit-equal
  // to the never-crashed process.
  static std::vector<UriEntry> SortedUris(
      const incremental::EntityStore& store) {
    std::vector<UriEntry> uris;
    uris.reserve(store.uri_index_.size());
    for (const auto& [uri, id] : store.uri_index_) {
      uris.emplace_back(uri, id);
    }
    std::sort(uris.begin(), uris.end());
    return uris;
  }

  // The manifest's description table is the rows' records back to back,
  // so it is written from the arena and restored by one validating walk
  // plus one exact-size copy into a single arena chunk.
  static void EncodeStoreManifest(const incremental::EntityStore& store,
                                  const std::vector<UriEntry>& uris,
                                  ByteWriter* out) {
    out->PutU64(store.size());
    for (const incremental::EntityStore::Row& row : store.rows_) {
      out->PutRaw(row.data, row.size);
    }
    // Setting and split of the dirty collection the store once was.
    out->PutU8(0);
    out->PutU64(store.size());
    out->PutRaw(store.alive_.data(), store.alive_.size());
    out->PutRaw(store.versions_.data(),
                store.versions_.size() * sizeof(uint64_t));
    out->PutU64(uris.size());
    for (const auto& [uri, id] : uris) {
      out->PutU32(static_cast<uint32_t>(uri.size()));
      out->PutRaw(uri.data(), uri.size());
      out->PutU32(id);
    }
    out->PutU64(store.live_);
    out->PutU64(store.updates_);
  }

  static Status DecodeStoreManifest(const ParsedImage& image, uint32_t kind,
                                    incremental::EntityStore* store) {
    using Row = incremental::EntityStore::Row;
    const SectionEntry* section = image.Find(kind);
    if (section == nullptr) return CorruptSection(kind, "section missing");
    const uint8_t* data = image.SectionData(*section);
    ByteReader in(data, section->size);
    uint64_t count = in.GetU64();
    // Every record takes at least 16 bytes (four empty fields).
    if (in.failed() || count > in.remaining() / 16) {
      return CorruptSection(kind, "truncated description table");
    }
    const size_t table_begin = in.offset();
    std::vector<Row> rows(count);
    for (uint64_t i = 0; i < count && !in.failed(); ++i) {
      size_t begin = in.offset();
      SkipDescription(&in);
      if (in.offset() - begin > UINT32_MAX) {
        return CorruptSection(kind, "description record over 4 GiB");
      }
      // Sizes only for now; the pointers follow the arena copy below.
      rows[i] = Row{nullptr, static_cast<uint32_t>(in.offset() - begin)};
    }
    const size_t table_end = in.offset();
    uint8_t setting = in.GetU8();
    in.GetU64();  // Split: the store is dirty, so it equals count.
    if (in.failed()) {
      return CorruptSection(kind, "truncated description table");
    }
    if (setting != 0) return CorruptSection(kind, "store is not dirty");

    *store = incremental::EntityStore();
    if (table_end > table_begin) {
      uint8_t* table = store->Allocate(table_end - table_begin);
      std::memcpy(table, data + table_begin, table_end - table_begin);
      for (Row& row : rows) {
        row.data = table;
        table += row.size;
      }
    }
    store->rows_ = std::move(rows);
    store->alive_.resize(count);
    in.GetRaw(store->alive_.data(), count);
    store->versions_.resize(count);
    in.GetRaw(store->versions_.data(), count * sizeof(uint64_t));
    uint64_t uri_count = in.GetU64();
    if (!in.failed() && uri_count <= count) {
      store->uri_index_.reserve(uri_count);
    }
    for (uint64_t i = 0; i < uri_count && !in.failed(); ++i) {
      std::string uri = in.GetString();
      uint32_t id = in.GetU32();
      // An entry always names a live row by that row's own URI, whose
      // bytes in the arena become the key.
      if (in.failed() || id >= count ||
          incremental::EntityStore::UriOf(store->rows_[id]) != uri) {
        return CorruptSection(kind, "URI index entry names another row");
      }
      store->uri_index_.emplace(
          incremental::EntityStore::UriOf(store->rows_[id]), id);
    }
    store->live_ = in.GetU64();
    store->updates_ = in.GetU64();
    if (!in.Exhausted()) {
      return CorruptSection(kind, "malformed store manifest");
    }
    return Status::Ok();
  }

  static void EncodeResolverManifest(
      const incremental::IncrementalResolver& resolver, ByteWriter* out) {
    out->PutU64(resolver.matches_.size());
    out->PutRaw(resolver.matches_.data(),
                resolver.matches_.size() * sizeof(model::IdPair));
    out->PutU64(resolver.comparisons_);
    out->PutU64(resolver.candidates_);
    out->PutU64(resolver.merges_);
    out->PutU64(resolver.requeues_);
    out->PutU64(resolver.batches_);
    out->PutU64(resolver.removed_);
    // Purged tokens must survive recovery verbatim: a token purged by the
    // pre-crash process has already stopped emitting pairs, and a rebuilt
    // index that resurrected it would emit candidates the never-crashed
    // run does not see.
    std::vector<std::string_view> purged;
    for (const auto& [token, posting] :
         resolver.token_index_.postings_) {
      if (posting.purged) purged.push_back(token);
    }
    std::sort(purged.begin(), purged.end());
    out->PutU64(purged.size());
    for (std::string_view token : purged) {
      out->PutU32(static_cast<uint32_t>(token.size()));
      out->PutRaw(token.data(), token.size());
    }
  }

  static void EncodeSigManifest(const matching::SignatureStore& store,
                                size_t vocab_count, ByteWriter* out) {
    out->PutU64(vocab_count);
    out->PutU64(store.values_.size());
    for (const std::string& value : store.values_) out->PutString(value);
    out->PutU64(store.released_bytes_);
    out->PutU64(store.posting_arena_.array_chunks_);
    out->PutU64(store.posting_arena_.bitset_chunks_);
  }

  static void EncodeAnnex(const incremental::IncrementalResolver& resolver,
                          ByteWriter* out) {
    const incremental::DeltaIndexStats& stats =
        resolver.token_index_.stats_;
    out->PutU64(stats.updates);
    out->PutU64(stats.full_builds);
    out->PutU64(stats.purged_tokens);
    out->PutU64(stats.tokens);
  }

  /// Restores the signature-engine state of `store` in place (options,
  /// provider and collection pointer untouched — the store object was
  /// configured by its owner; the snapshot only replaces its contents).
  static Status RestoreSignatures(const ParsedImage& image, uint32_t tag,
                                  const LoadOptions& options,
                                  matching::SignatureStore* store) {
    SigManifest manifest;
    Status status =
        DecodeSigManifest(image, Tagged(kSigManifest, tag), &manifest);
    if (!status.ok()) return status;

    auto restore = [&](uint32_t kind, auto* arena) {
      if (status.ok()) status = RestoreArena(image, Tagged(kind, tag), arena);
    };
    restore(kSigEntries, &store->entries_);
    restore(kSigPostingChunks, &store->posting_arena_.chunks_);
    restore(kSigPostingArrays, &store->posting_arena_.array_values_);
    restore(kSigPostingBitsets, &store->posting_arena_.bitset_words_);
    restore(kSigTokens, &store->tokens_);
    restore(kSigTfIdf, &store->tfidf_);
    restore(kSigAttrSlots, &store->attribute_slots_);
    restore(kVocabBlob, &store->pending_vocab_blob_);
    restore(kVocabOffsets, &store->pending_vocab_offsets_);
    if (!status.ok()) return status;

    store->vocabulary_.clear();
    if (manifest.vocab_count == 0) {
      store->pending_vocab_blob_.clear();
      store->pending_vocab_offsets_.clear();
    } else {
      if (store->pending_vocab_offsets_.size() !=
          manifest.vocab_count + 1) {
        return CorruptSection(Tagged(kVocabOffsets, tag),
                              "offset count does not match vocabulary size");
      }
      if (options.verify_arenas) {
        const util::ArenaVec<uint32_t>& offsets =
            store->pending_vocab_offsets_;
        if (offsets[0] != 0 ||
            offsets[offsets.size() - 1] !=
                store->pending_vocab_blob_.size() ||
            !std::is_sorted(offsets.begin(), offsets.end())) {
          return CorruptSection(Tagged(kVocabOffsets, tag),
                                "offsets not a monotone cover of the blob");
        }
      }
    }
    store->values_ = std::move(manifest.values);
    store->released_bytes_ = manifest.released_bytes;
    store->posting_arena_.array_chunks_ =
        static_cast<size_t>(manifest.array_chunks);
    store->posting_arena_.bitset_chunks_ =
        static_cast<size_t>(manifest.bitset_chunks);
    return Status::Ok();
  }

  using TokenPosting =
      std::pair<std::string_view,
                const incremental::IncrementalTokenIndex::Posting*>;

  // Postings sorted by token, and the removed ids sorted: both live in
  // hash containers whose iteration order is not part of the state.
  static std::vector<TokenPosting> SortedPostings(
      const incremental::IncrementalTokenIndex& index) {
    std::vector<TokenPosting> postings;
    postings.reserve(index.postings_.size());
    for (const auto& [token, posting] : index.postings_) {
      postings.emplace_back(token, &posting);
    }
    std::sort(postings.begin(), postings.end());
    return postings;
  }

  static std::vector<model::EntityId> SortedRemoved(
      const incremental::IncrementalTokenIndex& index) {
    std::vector<model::EntityId> removed(index.removed_.begin(),
                                         index.removed_.end());
    std::sort(removed.begin(), removed.end());
    return removed;
  }

  /// The token index verbatim — postings in token order with their
  /// not-yet-compacted removed ids, purge marks, the removed set and the
  /// lifetime counters — so a restored index evolves exactly as the
  /// original would have.
  static void EncodeTokenIndex(const incremental::IncrementalTokenIndex& index,
                               const std::vector<TokenPosting>& postings,
                               const std::vector<model::EntityId>& removed,
                               ByteWriter* out) {
    out->PutU64(postings.size());
    for (const auto& [token, posting] : postings) {
      out->PutU32(static_cast<uint32_t>(token.size()));
      out->PutRaw(token.data(), token.size());
      out->PutU8(posting->purged ? 1 : 0);
      out->PutU64(posting->entities.size());
      out->PutRaw(posting->entities.data(),
                  posting->entities.size() * sizeof(model::EntityId));
    }
    out->PutU64(removed.size());
    out->PutRaw(removed.data(), removed.size() * sizeof(model::EntityId));
    out->PutU64(index.stats_.updates);
    out->PutU64(index.stats_.full_builds);
    out->PutU64(index.stats_.purged_tokens);
    out->PutU64(index.stats_.tokens);
  }

  static Status DecodeTokenIndex(const ParsedImage& image, uint32_t kind,
                                 incremental::IncrementalTokenIndex* index) {
    const SectionEntry* section = image.Find(kind);
    if (section == nullptr) return CorruptSection(kind, "section missing");
    ByteReader in(image.SectionData(*section), section->size);
    index->postings_.clear();
    index->removed_.clear();
    uint64_t count = in.GetU64();
    if (!in.failed() && count <= section->size) {
      index->postings_.reserve(count);
    }
    for (uint64_t i = 0; i < count && !in.failed(); ++i) {
      std::string token = in.GetString();
      incremental::IncrementalTokenIndex::Posting posting;
      posting.purged = in.GetU8() != 0;
      uint64_t size = in.GetU64();
      if (in.failed() || size > in.remaining() / sizeof(model::EntityId)) {
        return CorruptSection(kind, "truncated posting");
      }
      posting.entities.resize(size);
      in.GetRaw(posting.entities.data(), size * sizeof(model::EntityId));
      index->postings_.emplace(std::move(token), std::move(posting));
    }
    uint64_t removed = in.GetU64();
    if (in.failed() || removed > in.remaining() / sizeof(model::EntityId)) {
      return CorruptSection(kind, "truncated removed set");
    }
    std::vector<model::EntityId> ids(removed);
    in.GetRaw(ids.data(), removed * sizeof(model::EntityId));
    index->removed_.insert(ids.begin(), ids.end());
    index->stats_.updates = in.GetU64();
    index->stats_.full_builds = in.GetU64();
    index->stats_.purged_tokens = in.GetU64();
    index->stats_.tokens = static_cast<size_t>(in.GetU64());
    if (!in.Exhausted()) return CorruptSection(kind, "malformed token index");
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// Collects an image in memory.
struct VectorSink {
  std::vector<uint8_t>* out;
  void Reserve(size_t size) { out->reserve(size); }
  Status Put(const uint8_t* data, size_t size) {
    out->insert(out->end(), data, data + size);
    return Status::Ok();
  }
  Status Zeros(size_t count) {
    out->resize(out->size() + count, 0);
    return Status::Ok();
  }
};

/// Streams an image into a file, counting its bytes.
struct FileSink {
  AtomicFile* file;
  uint64_t bytes = 0;
  void Reserve(size_t) {}
  Status Put(const uint8_t* data, size_t size) {
    bytes += size;
    return file->Append({data, size});
  }
  Status Zeros(size_t count) {
    bytes += count;
    return file->AppendZeros(count);
  }
};

}  // namespace

void SnapshotCodec::Writer::AddBytes(uint32_t kind,
                                     std::vector<uint8_t> bytes) {
  owned_.push_back(std::move(bytes));
  sections_.push_back({kind, owned_.back().data(), owned_.back().size()});
}

void SnapshotCodec::Writer::AddStore(uint32_t tag,
                                     const incremental::EntityStore& store) {
  // Sorted once, not in each of EncodeExact's two encoder runs.
  std::vector<Impl::UriEntry> uris = Impl::SortedUris(store);
  AddBytes(Tagged(kStoreManifest, tag), EncodeExact([&](ByteWriter* out) {
             Impl::EncodeStoreManifest(store, uris, out);
           }));
}

void SnapshotCodec::Writer::AddSignatures(
    uint32_t tag, const matching::SignatureStore& sigs) {
  const size_t vocab_count = sigs.vocabulary_size();
  AddBytes(Tagged(kSigManifest, tag), EncodeExact([&](ByteWriter* out) {
             Impl::EncodeSigManifest(sigs, vocab_count, out);
           }));
  AddArena(Tagged(kSigEntries, tag), sigs.entries_.data(),
           sigs.entries_.size());
  AddArena(Tagged(kSigPostingChunks, tag), sigs.posting_arena_.chunks_.data(),
           sigs.posting_arena_.chunks_.size());
  AddArena(Tagged(kSigPostingArrays, tag),
           sigs.posting_arena_.array_values_.data(),
           sigs.posting_arena_.array_values_.size());
  AddArena(Tagged(kSigPostingBitsets, tag),
           sigs.posting_arena_.bitset_words_.data(),
           sigs.posting_arena_.bitset_words_.size());
  AddArena(Tagged(kSigTokens, tag), sigs.tokens_.data(), sigs.tokens_.size());
  AddArena(Tagged(kSigTfIdf, tag), sigs.tfidf_.data(), sigs.tfidf_.size());
  AddArena(Tagged(kSigAttrSlots, tag), sigs.attribute_slots_.data(),
           sigs.attribute_slots_.size());
  if (!sigs.vocabulary_.empty()) {
    // Serialize the hash map in id order: ids were assigned in
    // first-occurrence order, so this is deterministic.
    std::vector<const std::string*> by_id(sigs.vocabulary_.size());
    for (const auto& [token, id] : sigs.vocabulary_) by_id[id] = &token;
    std::vector<uint8_t> blob;
    std::vector<uint32_t> offsets;
    offsets.reserve(by_id.size() + 1);
    offsets.push_back(0);
    for (const std::string* token : by_id) {
      blob.insert(blob.end(), token->begin(), token->end());
      offsets.push_back(static_cast<uint32_t>(blob.size()));
    }
    std::vector<uint8_t> offset_bytes(offsets.size() * sizeof(uint32_t));
    std::memcpy(offset_bytes.data(), offsets.data(), offset_bytes.size());
    AddBytes(Tagged(kVocabBlob, tag), std::move(blob));
    AddBytes(Tagged(kVocabOffsets, tag), std::move(offset_bytes));
  } else if (vocab_count > 0) {
    // Loaded and never re-interned: the pending blob is already the
    // id-ordered encoding. Round-tripping it verbatim keeps the digest
    // stable across load/save cycles.
    AddArena(Tagged(kVocabBlob, tag), sigs.pending_vocab_blob_.data(),
             sigs.pending_vocab_blob_.size());
    AddArena(Tagged(kVocabOffsets, tag), sigs.pending_vocab_offsets_.data(),
             sigs.pending_vocab_offsets_.size());
  } else {
    AddArena<uint8_t>(Tagged(kVocabBlob, tag), nullptr, 0);
    AddArena<uint8_t>(Tagged(kVocabOffsets, tag), nullptr, 0);
  }
}

void SnapshotCodec::Writer::AddTokenIndex(
    uint32_t tag, const incremental::IncrementalTokenIndex& index) {
  // Sorted once, not in each of EncodeExact's two encoder runs.
  std::vector<Impl::TokenPosting> postings = Impl::SortedPostings(index);
  std::vector<model::EntityId> removed = Impl::SortedRemoved(index);
  AddBytes(Tagged(kTokenIndex, tag), EncodeExact([&](ByteWriter* out) {
             Impl::EncodeTokenIndex(index, postings, removed, out);
           }));
}

/// Lays the sections out page-aligned after the header and feeds the
/// header, the padding and each payload to `sink` in file order.
template <typename Sink>
Status SnapshotCodec::Writer::Emit(uint64_t config_fingerprint,
                                   uint64_t op_count, Sink& sink) const {
  const size_t header_len =
      kHeaderFixedBytes + sections_.size() * kSectionEntryBytes;
  std::vector<SectionEntry> directory(sections_.size());
  size_t offset = AlignUp(header_len, kPageSize);
  for (size_t i = 0; i < sections_.size(); ++i) {
    directory[i].kind = sections_[i].kind;
    directory[i].crc = Crc32c(sections_[i].data, sections_[i].size);
    directory[i].offset = offset;
    directory[i].size = sections_[i].size;
    offset = AlignUp(offset + sections_[i].size, kPageSize);
  }
  const size_t file_size =
      sections_.empty() ? header_len
                        : directory.back().offset + directory.back().size;

  std::vector<uint8_t> header(header_len, 0);
  auto put = [&header](size_t at, const void* data, size_t size) {
    std::memcpy(header.data() + at, data, size);
  };
  uint64_t magic = kSnapshotMagic;
  uint32_t version = kFormatVersion;
  uint64_t size64 = file_size;
  uint32_t section_count = static_cast<uint32_t>(sections_.size());
  put(0, &magic, 8);
  put(8, &version, 4);
  // Header CRC at [12, 16) is filled in last.
  put(16, &config_fingerprint, 8);
  put(24, &op_count, 8);
  put(32, &size64, 8);
  put(40, &section_count, 4);
  for (size_t i = 0; i < directory.size(); ++i) {
    size_t at = kHeaderFixedBytes + i * kSectionEntryBytes;
    put(at, &directory[i].kind, 4);
    put(at + 4, &directory[i].crc, 4);
    put(at + 8, &directory[i].offset, 8);
    put(at + 16, &directory[i].size, 8);
  }
  uint32_t header_crc = Crc32c(header.data(), header_len);
  put(12, &header_crc, 4);

  sink.Reserve(file_size);
  Status status = sink.Put(header.data(), header.size());
  size_t at = header_len;
  for (size_t i = 0; i < sections_.size() && status.ok(); ++i) {
    status = sink.Zeros(directory[i].offset - at);
    if (status.ok() && sections_[i].size != 0) {
      status = sink.Put(sections_[i].data, sections_[i].size);
    }
    at = directory[i].offset + directory[i].size;
  }
  return status;
}

std::vector<uint8_t> SnapshotCodec::Writer::Encode(uint64_t config_fingerprint,
                                                   uint64_t op_count) const {
  std::vector<uint8_t> image;
  VectorSink sink{&image};
  Status status = Emit(config_fingerprint, op_count, sink);
  WEBER_CHECK(status.ok()) << "in-memory snapshot encode failed";
  return image;
}

Status SnapshotCodec::Writer::Write(AtomicFile* file,
                                    uint64_t config_fingerprint,
                                    uint64_t op_count, WriteInfo* info) const {
  FileSink sink{file};
  Status status = Emit(config_fingerprint, op_count, sink);
  if (!status.ok() || info == nullptr) return status;
  info->bytes = sink.bytes;
  info->digest = Digest();
  return Status::Ok();
}

uint32_t SnapshotCodec::Writer::Digest() const {
  // The CRC chain over every non-annex payload in directory order, as
  // ImageDigest computes it from the encoded bytes.
  uint32_t digest = 0;
  for (const Section& section : sections_) {
    if (section.kind == kAnnex) continue;
    digest = Crc32c(section.data, section.size, digest);
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

SnapshotCodec::Reader::Reader() = default;
SnapshotCodec::Reader::~Reader() = default;

Status SnapshotCodec::Reader::Open(const std::string& path,
                                   uint64_t config_fingerprint,
                                   const LoadOptions& options) {
  image_ = std::make_unique<ParsedImage>();
  options_ = options;
  Status status = OpenImage(path, options.mapped, image_.get());
  if (!status.ok()) return status;
  if (image_->config_fingerprint != config_fingerprint) {
    return Status(StorageErrc::kConfigMismatch,
                  "snapshot was produced under a different resolver "
                  "configuration");
  }
  return VerifyAll(*image_, options.verify_arenas);
}

uint64_t SnapshotCodec::Reader::op_count() const { return image_->op_count; }

bool SnapshotCodec::Reader::HasSignatures(uint32_t tag) const {
  return image_->Find(Tagged(kSigManifest, tag)) != nullptr;
}

Status SnapshotCodec::Reader::Bytes(uint32_t kind,
                                    std::span<const uint8_t>* out) const {
  const SectionEntry* section = image_->Find(kind);
  if (section == nullptr) return CorruptSection(kind, "section missing");
  *out = {image_->SectionData(*section), section->size};
  return Status::Ok();
}

Status SnapshotCodec::Reader::RestoreStore(
    uint32_t tag, incremental::EntityStore* store) const {
  return Impl::DecodeStoreManifest(*image_, Tagged(kStoreManifest, tag),
                                   store);
}

Status SnapshotCodec::Reader::RestoreSignatures(
    uint32_t tag, matching::SignatureStore* store) const {
  return Impl::RestoreSignatures(*image_, tag, options_, store);
}

Status SnapshotCodec::Reader::RestoreTokenIndex(
    uint32_t tag, incremental::IncrementalTokenIndex* index) const {
  return Impl::DecodeTokenIndex(*image_, Tagged(kTokenIndex, tag), index);
}

// ---------------------------------------------------------------------------
// The single-store resolver image
// ---------------------------------------------------------------------------

SnapshotCodec::Writer SnapshotCodec::ResolverWriter(
    const incremental::IncrementalResolver& resolver) {
  Writer writer;
  writer.AddStore(0, resolver.store_);
  writer.AddBytes(kResolverManifest, EncodeExact([&](ByteWriter* out) {
                    Impl::EncodeResolverManifest(resolver, out);
                  }));
  if (resolver.signatures_.has_value()) {
    writer.AddSignatures(0, *resolver.signatures_);
  }
  ByteWriter annex;
  Impl::EncodeAnnex(resolver, &annex);
  writer.AddBytes(kAnnex, annex.Take());
  return writer;
}

std::vector<uint8_t> SnapshotCodec::Encode(
    const incremental::IncrementalResolver& resolver,
    uint64_t config_fingerprint, uint64_t op_count) {
  return ResolverWriter(resolver).Encode(config_fingerprint, op_count);
}

Status SnapshotCodec::Write(const incremental::IncrementalResolver& resolver,
                            uint64_t config_fingerprint, uint64_t op_count,
                            AtomicFile* file, WriteInfo* info) {
  return ResolverWriter(resolver).Write(file, config_fingerprint, op_count,
                                        info);
}

Status SnapshotCodec::Load(const std::string& path,
                           uint64_t config_fingerprint,
                           const LoadOptions& options,
                           incremental::IncrementalResolver* resolver,
                           uint64_t* op_count) {
  Reader reader;
  Status status = reader.Open(path, config_fingerprint, options);
  if (!status.ok()) return status;

  bool snapshot_has_sigs = reader.HasSignatures(0);
  if (snapshot_has_sigs != resolver->signatures_.has_value()) {
    return Status(StorageErrc::kConfigMismatch,
                  snapshot_has_sigs
                      ? "snapshot carries signatures but the resolver "
                        "prepared none"
                      : "resolver expects signatures the snapshot lacks");
  }

  status = reader.RestoreStore(0, &resolver->store_);
  if (!status.ok()) return status;

  std::span<const uint8_t> bytes;
  status = reader.Bytes(kResolverManifest, &bytes);
  if (!status.ok()) return status;
  uint64_t counters[6] = {};
  std::vector<std::string> purged;
  resolver->matches_.clear();
  status = DecodeResolverManifest(bytes, &resolver->matches_, counters,
                                  &purged);
  if (!status.ok()) return status;
  resolver->comparisons_ = counters[0];
  resolver->candidates_ = counters[1];
  resolver->merges_ = counters[2];
  resolver->requeues_ = counters[3];
  resolver->batches_ = counters[4];
  resolver->removed_ = counters[5];

  if (snapshot_has_sigs) {
    status = reader.RestoreSignatures(0, &*resolver->signatures_);
    if (!status.ok()) return status;
  }

  // The delta index is not serialized: it is rebuilt from the live
  // rows, which is observationally identical to the pre-crash index (its
  // lazily-compacted postings only ever differ by removed ids that
  // compaction drops before any pair is emitted). Purge marks go in
  // first so re-absorbed entities cannot resurrect retired tokens.
  resolver->token_index_ =
      incremental::IncrementalTokenIndex(resolver->options_.index);
  for (const std::string& token : purged) {
    resolver->token_index_.postings_[token].purged = true;
  }
  resolver->store_.ForEachLive(
      [resolver](model::EntityId id,
                 const model::EntityDescription& description) {
        resolver->token_index_.Absorb(id, description, nullptr);
      });
  status = reader.Bytes(kAnnex, &bytes);
  if (!status.ok()) return status;
  status = DecodeAnnex(bytes, &resolver->token_index_.stats_);
  if (!status.ok()) return status;

  // The union-find forest is the transitive closure of matches_; flagging
  // it dirty makes the next public call rebuild it exactly.
  resolver->forest_dirty_ = true;
  resolver->members_.clear();
  resolver->rep_cache_.clear();
  resolver->scored_roots_.clear();

  if (op_count != nullptr) *op_count = reader.op_count();
  return Status::Ok();
}

Status SnapshotCodec::OpenSignatures(const std::string& path,
                                     const LoadOptions& options,
                                     matching::SignatureStore* store) {
  ParsedImage image;
  Status status = OpenImage(path, options.mapped, &image);
  if (!status.ok()) return status;
  if (image.Find(kSigManifest) == nullptr) {
    return Status(StorageErrc::kConfigMismatch,
                  "snapshot carries no signature sections");
  }
  for (const SectionEntry& section : image.sections) {
    bool needed = section.kind == kSigManifest ||
                  (section.kind >= kSigEntries && options.verify_arenas);
    if (!needed) continue;
    status = VerifySection(image, section);
    if (!status.ok()) return status;
  }
  return Impl::RestoreSignatures(image, 0, options, store);
}

Status SnapshotCodec::ImageDigest(std::span<const uint8_t> image,
                                  uint32_t* digest) {
  ParsedImage parsed;
  parsed.data = image.data();
  parsed.size = image.size();
  Status status = ParseHeader(&parsed);
  if (!status.ok()) return status;
  uint32_t crc = 0;
  for (const SectionEntry& section : parsed.sections) {
    if (section.kind == kAnnex) continue;
    crc = Crc32c(parsed.SectionData(section), section.size, crc);
  }
  *digest = crc;
  return Status::Ok();
}

uint32_t SnapshotCodec::StateDigest(
    const incremental::IncrementalResolver& resolver) {
  return ResolverWriter(resolver).Digest();
}

}  // namespace weber::storage
