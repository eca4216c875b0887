#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "datagen/corpus_generator.h"
#include "incremental/entity_store.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "obs/metrics.h"
#include "storage/buffer.h"
#include "storage/crc32c.h"
#include "storage/durable.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/status.h"
#include "storage/wal.h"
#include "tests/storage_ops.h"

namespace weber::storage {
namespace {

using ::weber::testing::ApplyStorageOp;
using ::weber::testing::GenerateStorageOps;
using ::weber::testing::StorageOp;

/// A throwaway directory removed (recursively, one level deep — the
/// durability layer never nests) when the test ends.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/weber-storage-test-XXXXXX";
    char* made = mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::vector<std::string> entries;
    if (ListDirectory(path_, &entries).ok()) {
      for (const std::string& entry : entries) {
        std::remove((path_ + "/" + entry).c_str());
      }
    }
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes).ok());
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  EXPECT_TRUE(AtomicWriteFile(path, bytes).ok());
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // 32 zero bytes, another published vector.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainsIncrementalUpdates) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t n = std::strlen(data);
  uint32_t whole = Crc32c(data, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t chained = Crc32c(data + split, n - split, Crc32c(data, split));
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader
// ---------------------------------------------------------------------------

TEST(BufferTest, RoundTripsEveryScalar) {
  ByteWriter writer;
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutDouble(3.25);
  writer.PutString("weber");
  writer.PutString("");
  std::vector<uint8_t> bytes = writer.Take();

  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.GetU8(), 0xAB);
  EXPECT_EQ(reader.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.GetDouble(), 3.25);
  EXPECT_EQ(reader.GetString(), "weber");
  EXPECT_EQ(reader.GetString(), "");
  EXPECT_FALSE(reader.failed());
}

TEST(BufferTest, OverrunSetsFailedInsteadOfReadingPastEnd) {
  ByteWriter writer;
  writer.PutU32(7);
  std::vector<uint8_t> bytes = writer.Take();

  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.GetU32(), 7u);
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.GetU64(), 0u);  // Past the end: zero, flag set.
  EXPECT_TRUE(reader.failed());
  EXPECT_EQ(reader.GetU32(), 0u);  // Failure is sticky.
  EXPECT_TRUE(reader.failed());
}

TEST(BufferTest, StringLengthBeyondRangeFails) {
  ByteWriter writer;
  writer.PutU32(1000);  // Claims 1000 bytes that are not there.
  std::vector<uint8_t> bytes = writer.Take();
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(reader.GetString(), "");
  EXPECT_TRUE(reader.failed());
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

/// A record's payload, copied out of the Contents it views.
std::vector<uint8_t> PayloadOf(const WriteAheadLog::Record& record) {
  return std::vector<uint8_t>(record.payload.begin(), record.payload.end());
}

TEST(WalTest, AppendReadRoundTrip) {
  TempDir dir;
  std::string path = dir.file("wal-0");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Create(path, 42, FsyncPolicy::kAlways, 1).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kIngestBatch,
                         Payload({1, 2, 3, 4})).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({9})).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kIngestBatch, {}).ok());
  EXPECT_EQ(wal.appended_records(), 3u);
  wal.Close();

  WriteAheadLog::Contents contents;
  ASSERT_TRUE(WriteAheadLog::Read(path, &contents).ok());
  EXPECT_EQ(contents.base_op, 42u);
  EXPECT_EQ(contents.torn_bytes, 0u);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].type, WriteAheadLog::kIngestBatch);
  EXPECT_EQ(PayloadOf(contents.records[0]), Payload({1, 2, 3, 4}));
  EXPECT_EQ(contents.records[1].type, WriteAheadLog::kRemove);
  EXPECT_EQ(PayloadOf(contents.records[1]), Payload({9}));
  EXPECT_TRUE(contents.records[2].payload.empty());
  EXPECT_EQ(contents.good_size, ReadAll(path).size());

  // Payloads view the file image the Contents owns, and survive a move.
  EXPECT_EQ(contents.bytes, ReadAll(path));
  const uint8_t* image = contents.bytes.data();
  WriteAheadLog::Contents moved = std::move(contents);
  for (const WriteAheadLog::Record& record : moved.records) {
    EXPECT_GE(record.payload.data(), image);
    EXPECT_LE(record.payload.data() + record.payload.size(),
              image + moved.bytes.size());
  }
  EXPECT_EQ(PayloadOf(moved.records[0]), Payload({1, 2, 3, 4}));
}

TEST(WalTest, FsyncPolicyControlsSyncCount) {
  TempDir dir;
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Create(dir.file("a"), 0, FsyncPolicy::kAlways, 64).ok());
    uint64_t header_syncs = wal.fsyncs();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({0})).ok());
    }
    EXPECT_EQ(wal.fsyncs() - header_syncs, 5u);
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Create(dir.file("b"), 0, FsyncPolicy::kBatch, 4).ok());
    uint64_t header_syncs = wal.fsyncs();
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({0})).ok());
    }
    EXPECT_EQ(wal.fsyncs() - header_syncs, 2u);  // At records 4 and 8.
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Create(dir.file("c"), 0, FsyncPolicy::kOff, 64).ok());
    uint64_t header_syncs = wal.fsyncs();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({0})).ok());
    }
    EXPECT_EQ(wal.fsyncs() - header_syncs, 0u);
    EXPECT_TRUE(wal.Sync().ok());  // Explicit barrier still works.
    EXPECT_EQ(wal.fsyncs() - header_syncs, 1u);
  }
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  TempDir dir;
  std::string path = dir.file("wal-0");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Create(path, 0, FsyncPolicy::kOff, 1).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kIngestBatch,
                         Payload({1, 2, 3, 4, 5, 6, 7, 8})).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kIngestBatch,
                         Payload({9, 10, 11, 12})).ok());
  wal.Close();

  std::vector<uint8_t> bytes = ReadAll(path);
  // Chop the final record mid-frame, as a crash mid-write would.
  for (size_t cut = 1; cut < 13; ++cut) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.end() - cut);
    WriteAll(path, torn);
    WriteAheadLog::Contents contents;
    ASSERT_TRUE(WriteAheadLog::Read(path, &contents).ok())
        << "cut " << cut << " bytes";
    ASSERT_EQ(contents.records.size(), 1u) << "cut " << cut << " bytes";
    EXPECT_EQ(PayloadOf(contents.records[0]),
              Payload({1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(contents.torn_bytes, torn.size() - contents.good_size);
    EXPECT_GT(contents.torn_bytes, 0u);

    // Reopening truncates the tail; the next append lands on a clean edge.
    WriteAheadLog reopened;
    ASSERT_TRUE(reopened.OpenExisting(path, contents.good_size, torn.size(),
                                      FsyncPolicy::kOff, 1).ok());
    ASSERT_TRUE(reopened.Append(WriteAheadLog::kRemove, Payload({7})).ok());
    reopened.Close();
    WriteAheadLog::Contents healed;
    ASSERT_TRUE(WriteAheadLog::Read(path, &healed).ok());
    ASSERT_EQ(healed.records.size(), 2u);
    EXPECT_EQ(healed.records[1].type, WriteAheadLog::kRemove);
    EXPECT_EQ(healed.torn_bytes, 0u);
    WriteAll(path, bytes);  // Restore for the next cut.
  }
}

TEST(WalTest, ShortFileIsACleanEmptyLog) {
  TempDir dir;
  std::string path = dir.file("wal-0");
  WriteAll(path, std::vector<uint8_t>{1, 2, 3});  // Shorter than the header.
  WriteAheadLog::Contents contents;
  ASSERT_TRUE(WriteAheadLog::Read(path, &contents).ok());
  EXPECT_TRUE(contents.records.empty());
  EXPECT_EQ(contents.torn_bytes, 3u);
}

TEST(WalTest, InteriorCorruptionFailsClosed) {
  TempDir dir;
  std::string path = dir.file("wal-0");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Create(path, 0, FsyncPolicy::kOff, 1).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kIngestBatch,
                         Payload({1, 2, 3, 4})).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({9})).ok());
  wal.Close();

  std::vector<uint8_t> bytes = ReadAll(path);
  // Flip one payload byte of the FIRST record: a failed CRC with intact
  // records after it cannot be a torn tail.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[24 + 9] ^= 0x01;  // Header 24B + frame overhead 9B = first payload.
  WriteAll(path, corrupt);
  WriteAheadLog::Contents contents;
  Status status = WriteAheadLog::Read(path, &contents);
  EXPECT_EQ(status.code(), StorageErrc::kWalCorrupt);
  EXPECT_NE(status.message().find("records after it"), std::string::npos);
}

TEST(WalTest, RejectedImageSurrendersNoRecords) {
  TempDir dir;
  std::string path = dir.file("wal-0");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Create(path, 0, FsyncPolicy::kOff, 1).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({1})).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({2})).ok());
  ASSERT_TRUE(wal.Append(WriteAheadLog::kRemove, Payload({3})).ok());
  wal.Close();

  // Corrupt the SECOND record: the first parsed cleanly before the
  // failure, yet a rejected image must hand back none.
  std::vector<uint8_t> corrupt = ReadAll(path);
  corrupt[24 + 10 + 9] ^= 0x01;
  WriteAheadLog::Contents contents;
  EXPECT_EQ(WriteAheadLog::Parse(corrupt, &contents).code(),
            StorageErrc::kWalCorrupt);
  EXPECT_TRUE(contents.records.empty());
}

TEST(WalTest, HeaderFailureModesAreDistinct) {
  TempDir dir;
  std::string path = dir.file("wal-0");
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Create(path, 0, FsyncPolicy::kOff, 1).ok());
  wal.Close();
  std::vector<uint8_t> bytes = ReadAll(path);

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  WriteAll(path, bad_magic);
  WriteAheadLog::Contents contents;
  EXPECT_EQ(WriteAheadLog::Read(path, &contents).code(),
            StorageErrc::kBadMagic);

  std::vector<uint8_t> bad_version = bytes;
  bad_version[8] = 99;  // Version field; checked before the header CRC.
  WriteAll(path, bad_version);
  Status status = WriteAheadLog::Read(path, &contents);
  EXPECT_EQ(status.code(), StorageErrc::kBadVersion);
  EXPECT_NE(status.message().find("v99"), std::string::npos);

  std::vector<uint8_t> bad_base = bytes;
  bad_base[16] ^= 0xFF;  // base_op covered by the header CRC.
  WriteAll(path, bad_base);
  EXPECT_EQ(WriteAheadLog::Read(path, &contents).code(),
            StorageErrc::kWalCorrupt);

  EXPECT_EQ(WriteAheadLog::Read(dir.file("missing"), &contents).code(),
            StorageErrc::kIoError);
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

incremental::ResolverOptions TestResolverOptions() {
  incremental::ResolverOptions options;
  options.match_threshold = 0.5;
  return options;
}

/// Builds a resolver and streams `n_ops` generated ops through it.
void Replay(incremental::IncrementalResolver* resolver, uint64_t seed,
            size_t n_ops) {
  for (const StorageOp& op : GenerateStorageOps(seed, n_ops)) {
    ApplyStorageOp(resolver, op);
  }
}

class SnapshotTest : public ::testing::Test {
 protected:
  matching::TokenJaccardMatcher matcher_;
};

TEST_F(SnapshotTest, RoundTripPreservesStateDigest) {
  incremental::IncrementalResolver writer(&matcher_, TestResolverOptions());
  Replay(&writer, 7, 40);
  std::vector<uint8_t> image = SnapshotCodec::Encode(writer, 1234, 40);

  TempDir dir;
  std::string path = dir.file("snapshot-40");
  WriteAll(path, image);

  for (bool mapped : {false, true}) {
    incremental::IncrementalResolver reader(&matcher_, TestResolverOptions());
    SnapshotCodec::LoadOptions options;
    options.mapped = mapped;
    uint64_t op_count = 0;
    ASSERT_TRUE(
        SnapshotCodec::Load(path, 1234, options, &reader, &op_count).ok())
        << (mapped ? "mapped" : "eager");
    EXPECT_EQ(op_count, 40u);
    EXPECT_EQ(reader.store().size(), writer.store().size());
    EXPECT_EQ(reader.matches().size(), writer.matches().size());
    EXPECT_EQ(SnapshotCodec::StateDigest(reader),
              SnapshotCodec::StateDigest(writer));
  }
}

// The store manifest is on disk in every snapshot, and its bytes feed the
// state digest: a change in how the store holds its rows must not change
// them. This image was recorded from a store of heap-object rows.
TEST(StoreManifestTest, ImageIsPinned) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.duplicate_fraction = 0.5;
  config.seed = 17;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  incremental::EntityStore store;
  for (const model::EntityDescription& d : corpus.collection.descriptions()) {
    store.Append(d);
  }
  model::EntityDescription edge(std::string("u/nul\0inside", 13), "");
  edge.AddPair("name", std::string("a\0b", 3));
  edge.AddRelation("knows", "u/0");
  store.Append(edge);
  store.Append(model::EntityDescription());
  store.Append(model::EntityDescription("", "typed"));
  model::EntityDescription renamed("u/renamed", "person");
  renamed.AddPair("name", "renamed row");
  ASSERT_TRUE(store.Update(3, renamed));
  ASSERT_TRUE(store.Update(5, corpus.collection.at(5)));
  ASSERT_TRUE(store.Tombstone(7));
  ASSERT_TRUE(store.Tombstone(3));

  SnapshotCodec::Writer writer;
  writer.AddStore(0, store);
  std::vector<uint8_t> image = writer.Encode(0x5eed, 42);
  EXPECT_EQ(image.size(), 25035u);
  EXPECT_EQ(Crc32c(image.data(), image.size()), 0x09e4f3f1u);
  EXPECT_EQ(writer.Digest(), 0xc31e030eu);
}

TEST_F(SnapshotTest, LoadedResolverContinuesBitEqually) {
  // The recovered resolver must not merely look equal — it must *evolve*
  // equally: every future op lands identically on both.
  incremental::IncrementalResolver reference(&matcher_,
                                             TestResolverOptions());
  Replay(&reference, 11, 30);
  std::vector<uint8_t> image = SnapshotCodec::Encode(reference, 0, 30);
  TempDir dir;
  WriteAll(dir.file("snap"), image);

  incremental::IncrementalResolver recovered(&matcher_,
                                             TestResolverOptions());
  uint64_t op_count = 0;
  ASSERT_TRUE(SnapshotCodec::Load(dir.file("snap"), 0, {}, &recovered,
                                  &op_count).ok());

  std::vector<StorageOp> ops = GenerateStorageOps(11, 60);
  for (size_t i = 30; i < ops.size(); ++i) {
    ApplyStorageOp(&reference, ops[i]);
    ApplyStorageOp(&recovered, ops[i]);
  }
  EXPECT_EQ(reference.matches(), recovered.matches());
  EXPECT_EQ(SnapshotCodec::StateDigest(reference),
            SnapshotCodec::StateDigest(recovered));
}

TEST_F(SnapshotTest, ConfigFingerprintMismatchFailsClosed) {
  incremental::IncrementalResolver writer(&matcher_, TestResolverOptions());
  Replay(&writer, 3, 10);
  TempDir dir;
  WriteAll(dir.file("snap"), SnapshotCodec::Encode(writer, 1111, 10));

  incremental::IncrementalResolver reader(&matcher_, TestResolverOptions());
  uint64_t op_count = 0;
  Status status =
      SnapshotCodec::Load(dir.file("snap"), 2222, {}, &reader, &op_count);
  EXPECT_EQ(status.code(), StorageErrc::kConfigMismatch);
}

TEST_F(SnapshotTest, CorruptionFailureModesAreDistinct) {
  incremental::IncrementalResolver writer(&matcher_, TestResolverOptions());
  Replay(&writer, 5, 25);
  std::vector<uint8_t> image = SnapshotCodec::Encode(writer, 0, 25);
  ASSERT_GT(image.size(), 4096u + 64u);
  TempDir dir;
  std::string path = dir.file("snap");
  incremental::IncrementalResolver reader(&matcher_, TestResolverOptions());
  uint64_t op_count = 0;

  // Flipped magic: not a snapshot at all.
  std::vector<uint8_t> bad = image;
  bad[0] ^= 0xFF;
  WriteAll(path, bad);
  Status status = SnapshotCodec::Load(path, 0, {}, &reader, &op_count);
  EXPECT_EQ(status.code(), StorageErrc::kBadMagic);

  // Future format version: refuse, never misparse. The version field is
  // checked before the header CRC, so no recompute is needed.
  bad = image;
  bad[8] = 9;
  WriteAll(path, bad);
  status = SnapshotCodec::Load(path, 0, {}, &reader, &op_count);
  EXPECT_EQ(status.code(), StorageErrc::kBadVersion);
  EXPECT_NE(status.message().find("v9"), std::string::npos);
  EXPECT_NE(status.message().find("this build reads v1"), std::string::npos);

  // A flipped bit inside the header (op count) fails the header CRC.
  bad = image;
  bad[24] ^= 0x01;
  WriteAll(path, bad);
  status = SnapshotCodec::Load(path, 0, {}, &reader, &op_count);
  EXPECT_EQ(status.code(), StorageErrc::kCorruptHeader);

  // Truncation is reported as a header-level failure with both sizes.
  std::vector<uint8_t> truncated(image.begin(), image.end() - 100);
  WriteAll(path, truncated);
  status = SnapshotCodec::Load(path, 0, {}, &reader, &op_count);
  EXPECT_EQ(status.code(), StorageErrc::kCorruptHeader);
  EXPECT_NE(status.message().find("truncated"), std::string::npos);

  // A flipped bit inside a payload names the section that failed.
  bad = image;
  bad[4096 + 10] ^= 0x01;  // First page-aligned payload.
  WriteAll(path, bad);
  status = SnapshotCodec::Load(path, 0, {}, &reader, &op_count);
  EXPECT_EQ(status.code(), StorageErrc::kCorruptSection);
  EXPECT_NE(status.message().find("section"), std::string::npos);
}

TEST_F(SnapshotTest, AnnexIsExcludedFromTheDigest) {
  // Two resolvers at the same logical state but different delta-index
  // lifetime counters must digest equally; only the annex may differ.
  incremental::IncrementalResolver writer(&matcher_, TestResolverOptions());
  Replay(&writer, 13, 20);
  std::vector<uint8_t> image = SnapshotCodec::Encode(writer, 0, 20);
  uint32_t before = 0;
  ASSERT_TRUE(SnapshotCodec::ImageDigest(image, &before).ok());

  TempDir dir;
  WriteAll(dir.file("snap"), image);
  incremental::IncrementalResolver recovered(&matcher_,
                                             TestResolverOptions());
  uint64_t op_count = 0;
  ASSERT_TRUE(SnapshotCodec::Load(dir.file("snap"), 0, {}, &recovered,
                                  &op_count).ok());
  // Re-encoding the recovered resolver reproduces the digest bit-for-bit.
  std::vector<uint8_t> reencoded = SnapshotCodec::Encode(recovered, 0, 20);
  uint32_t after = 0;
  ASSERT_TRUE(SnapshotCodec::ImageDigest(reencoded, &after).ok());
  EXPECT_EQ(before, after);
}

TEST_F(SnapshotTest, OpenSignaturesIsZeroCopy) {
  incremental::IncrementalResolver writer(&matcher_, TestResolverOptions());
  Replay(&writer, 17, 30);
  ASSERT_NE(writer.signatures(), nullptr);
  TempDir dir;
  WriteAll(dir.file("snap"), SnapshotCodec::Encode(writer, 0, 30));

  matching::SignatureStore store;
  SnapshotCodec::LoadOptions options;
  options.mapped = true;
  options.verify_arenas = false;  // The O(1) open path.
  ASSERT_TRUE(
      SnapshotCodec::OpenSignatures(dir.file("snap"), options, &store).ok());
  EXPECT_EQ(store.size(), writer.signatures()->size());
  EXPECT_EQ(store.vocabulary_size(), writer.signatures()->vocabulary_size());
}

// ---------------------------------------------------------------------------
// DurableResolver
// ---------------------------------------------------------------------------

TEST(DurableResolverTest, RecoversToBitEqualState) {
  matching::TokenJaccardMatcher matcher;
  TempDir dir;
  DurabilityOptions durability;
  durability.data_dir = dir.path();
  durability.fsync = FsyncPolicy::kAlways;
  durability.snapshot_every = 7;  // Exercise mid-run checkpoints too.

  std::vector<StorageOp> ops = GenerateStorageOps(23, 30);
  uint32_t digest_before = 0;
  {
    DurableResolver durable(&matcher, TestResolverOptions(), durability);
    ASSERT_TRUE(durable.healthy());
    for (const StorageOp& op : ops) ApplyStorageOp(&durable, op);
    EXPECT_EQ(durable.op_count(), ops.size());
    digest_before = SnapshotCodec::StateDigest(durable.resolver());
  }  // Destructor closes the WAL; no checkpoint — the tail replays.

  incremental::IncrementalResolver reference(&matcher, TestResolverOptions());
  for (const StorageOp& op : ops) ApplyStorageOp(&reference, op);
  ASSERT_EQ(digest_before, SnapshotCodec::StateDigest(reference))
      << "durable wrapper diverged from a plain resolver";

  DurableResolver recovered(&matcher, TestResolverOptions(), durability);
  ASSERT_TRUE(recovered.healthy()) << recovered.recovery_status().ToString();
  EXPECT_EQ(recovered.op_count(), ops.size());
  EXPECT_GT(recovered.replayed_records(), 0u);
  EXPECT_EQ(SnapshotCodec::StateDigest(recovered.resolver()), digest_before);
  EXPECT_EQ(recovered.resolver().matches(), reference.matches());
}

TEST(DurableResolverTest, WalReplayIsNotCountedAsLiveWork) {
  matching::TokenJaccardMatcher matcher;
  TempDir dir;
  DurabilityOptions durability;
  durability.data_dir = dir.path();
  durability.fsync = FsyncPolicy::kOff;
  {
    DurableResolver durable(&matcher, TestResolverOptions(), durability);
    ASSERT_TRUE(durable.healthy());
    for (const StorageOp& op : GenerateStorageOps(59, 40)) {
      ApplyStorageOp(&durable, op);
    }
  }  // WAL only: never checkpointed.

  obs::MetricsRegistry registry;
  incremental::ResolverOptions options = TestResolverOptions();
  options.metrics = &registry;
  DurableResolver recovered(&matcher, options, durability);
  ASSERT_TRUE(recovered.healthy()) << recovered.recovery_status().ToString();
  EXPECT_GT(registry.GetCounter("weber.storage.wal.replayed_records").Value(),
            0u);
  for (const char* name :
       {"weber.incremental.ingested", "weber.incremental.batches",
        "weber.incremental.candidates", "weber.incremental.comparisons",
        "weber.incremental.removed"}) {
    EXPECT_EQ(registry.GetCounter(name).Value(), 0u) << name;
  }

  uint64_t ingested = 0;
  for (const StorageOp& op : GenerateStorageOps(61, 12)) {
    if (op.remove) continue;
    ingested += op.batch.size();
    recovered.Ingest(op.batch);
  }
  ASSERT_GT(ingested, 0u);
  EXPECT_EQ(registry.GetCounter("weber.incremental.ingested").Value(),
            ingested);
}

TEST(DurableResolverTest, ConfigChangeIsRejectedOnRecovery) {
  matching::TokenJaccardMatcher matcher;
  TempDir dir;
  DurabilityOptions durability;
  durability.data_dir = dir.path();
  durability.fsync = FsyncPolicy::kOff;
  {
    DurableResolver durable(&matcher, TestResolverOptions(), durability);
    ASSERT_TRUE(durable.healthy());
    for (const StorageOp& op : GenerateStorageOps(1, 10)) {
      ApplyStorageOp(&durable, op);
    }
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  incremental::ResolverOptions changed = TestResolverOptions();
  changed.match_threshold = 0.9;  // Different durable-state-shaping config.
  DurableResolver recovered(&matcher, changed, durability);
  EXPECT_FALSE(recovered.healthy());
  EXPECT_EQ(recovered.recovery_status().code(), StorageErrc::kConfigMismatch);
}

// The fingerprint is stored on disk: if it drifted for an unchanged
// config, every existing data directory would fail recovery with
// kConfigMismatch. These values were written by earlier releases.
TEST(DurableResolverTest, ConfigFingerprintIsPinned) {
  matching::TokenJaccardMatcher matcher;
  EXPECT_EQ(DurableResolver::ConfigFingerprint(&matcher,
                                               incremental::ResolverOptions{}),
            0x1cde547894d621eaull);
  incremental::ResolverOptions custom;
  custom.index.max_block_size = 64;
  custom.prepared_matching = false;
  EXPECT_EQ(DurableResolver::ConfigFingerprint(&matcher, custom),
            0xe4ceb5395487248bull);
}

TEST(DurableResolverTest, MissingDataDirFailsClosed) {
  matching::TokenJaccardMatcher matcher;
  DurabilityOptions durability;
  durability.data_dir = "/tmp/weber-definitely-missing-dir-12345";
  DurableResolver durable(&matcher, TestResolverOptions(), durability);
  EXPECT_FALSE(durable.healthy());
  EXPECT_EQ(durable.recovery_status().code(), StorageErrc::kIoError);
}

TEST(DurableResolverTest, OrphanWalBeyondSnapshotFailsClosed) {
  matching::TokenJaccardMatcher matcher;
  TempDir dir;
  DurabilityOptions durability;
  durability.data_dir = dir.path();
  durability.fsync = FsyncPolicy::kOff;
  {
    DurableResolver durable(&matcher, TestResolverOptions(), durability);
    for (const StorageOp& op : GenerateStorageOps(2, 8)) {
      ApplyStorageOp(&durable, op);
    }
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  // Fabricate a WAL of a newer generation than any snapshot: its base
  // state is gone, so recovery must refuse rather than replay from the
  // wrong base.
  WriteAheadLog orphan;
  ASSERT_TRUE(orphan.Create(dir.file("wal-00000000000000000099"), 99,
                            FsyncPolicy::kOff, 1).ok());
  orphan.Close();
  DurableResolver recovered(&matcher, TestResolverOptions(), durability);
  EXPECT_FALSE(recovered.healthy());
  EXPECT_EQ(recovered.recovery_status().code(), StorageErrc::kWalCorrupt);
  EXPECT_NE(recovered.recovery_status().message().find("no matching"),
            std::string::npos);
}

TEST(DurableResolverTest, CheckpointCollapsesGenerations) {
  matching::TokenJaccardMatcher matcher;
  TempDir dir;
  DurabilityOptions durability;
  durability.data_dir = dir.path();
  durability.fsync = FsyncPolicy::kOff;
  {
    DurableResolver durable(&matcher, TestResolverOptions(), durability);
    for (const StorageOp& op : GenerateStorageOps(3, 12)) {
      ApplyStorageOp(&durable, op);
    }
    ASSERT_TRUE(durable.Checkpoint().ok());
    ASSERT_TRUE(durable.Checkpoint().ok());  // Idempotent at the same op.
  }
  std::vector<std::string> entries;
  ASSERT_TRUE(ListDirectory(dir.path(), &entries).ok());
  size_t snapshots = 0;
  size_t wals = 0;
  for (const std::string& entry : entries) {
    if (entry.rfind("snapshot-", 0) == 0) ++snapshots;
    if (entry.rfind("wal-", 0) == 0) ++wals;
  }
  EXPECT_EQ(snapshots, 1u) << "stale generations must be unlinked";
  EXPECT_EQ(wals, 1u);
}

}  // namespace
}  // namespace weber::storage
