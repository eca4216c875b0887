// Durability tests of the sharded serving path: clean reopen, the
// kill-and-recover property at 8 shards (a child process SIGKILLs itself
// mid-op-stream, or inside a checkpoint, and the parent recovers
// bit-equal state from the per-shard WAL and snapshot corpses), torn-tail
// truncation, snapshot generations, the v1 directory layout, and
// fail-closed config mismatch.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "matching/matcher.h"
#include "obs/metrics.h"
#include "serve/sharded_resolver.h"
#include "storage/buffer.h"
#include "storage/file_io.h"
#include "storage/wal.h"
#include "tests/storage_ops.h"

namespace weber::serve {
namespace {

using ::weber::testing::ApplyStorageOp;
using ::weber::testing::GenerateStorageOps;
using ::weber::testing::StorageOp;

/// Scratch directory; cleans up the per-shard subdirectories too.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/weber-serve-recovery-XXXXXX";
    char* made = mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::vector<std::string> entries;
    if (storage::ListDirectory(path_, &entries).ok()) {
      for (const std::string& entry : entries) {
        std::string child = path_ + "/" + entry;
        std::vector<std::string> nested;
        if (storage::ListDirectory(child, &nested).ok()) {
          for (const std::string& inner : nested) {
            std::remove((child + "/" + inner).c_str());
          }
        }
        std::remove(child.c_str());
      }
    }
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ShardedResolverOptions DurableOptions(const std::string& data_dir,
                                      size_t shards,
                                      storage::FsyncPolicy fsync) {
  ShardedResolverOptions options;
  options.shards = shards;
  options.data_dir = data_dir;
  options.fsync = fsync;
  return options;
}

/// Applies ops to `resolver` until its osn reaches `target`, starting at
/// op index *next; leaves *next at the first unapplied op. Ops past the
/// target osn within the walk are failed removes (no-ops), so stopping
/// on osn is exact.
void ApplyUntilOsn(ShardedResolver* resolver,
                   const std::vector<StorageOp>& ops, uint64_t target,
                   size_t* next) {
  while (resolver->osn() < target) {
    ASSERT_LT(*next, ops.size());
    ApplyStorageOp(resolver, ops[(*next)++]);
  }
  ASSERT_EQ(resolver->osn(), target);
}

/// Counts the snapshot files of a data dir, temp files included, and
/// checks that every shard holds exactly the WAL of the newest generation.
/// A settled checkpointed directory reports 1.
size_t Generations(const std::string& data_dir) {
  size_t count = 0;
  std::vector<std::string> names;
  EXPECT_TRUE(storage::ListDirectory(data_dir, &names).ok());
  std::vector<std::string> snapshots;
  for (const std::string& name : names) {
    if (name.find(".tmp") != std::string::npos) {
      ++count;
    } else if (name.rfind("serve-snapshot-", 0) == 0) {
      snapshots.push_back(name);
    }
  }
  count += snapshots.size();
  // Each shard holds exactly wal-G for the surviving generation G.
  std::string wal = "wal-" + (snapshots.empty()
                                  ? std::string("0")
                                  : snapshots.front().substr(15));
  for (const std::string& name : names) {
    if (name.rfind("shard-", 0) != 0) continue;
    std::vector<std::string> wals;
    EXPECT_TRUE(storage::ListDirectory(data_dir + "/" + name, &wals).ok());
    EXPECT_EQ(wals, std::vector<std::string>{wal}) << name;
  }
  return count;
}

TEST(ShardedRecoveryTest, CleanReopenIsBitEqual) {
  TempDir dir;
  std::vector<StorageOp> ops = GenerateStorageOps(31, 40);
  matching::TokenJaccardMatcher matcher;

  uint64_t digest = 0;
  uint64_t osn = 0;
  {
    ShardedResolver durable(
        &matcher,
        DurableOptions(dir.path(), 3, storage::FsyncPolicy::kBatch));
    ASSERT_TRUE(durable.recovery_status().ok());
    for (const StorageOp& op : ops) ApplyStorageOp(&durable, op);
    digest = durable.StateDigest();
    osn = durable.osn();
  }

  ShardedResolver recovered(
      &matcher, DurableOptions(dir.path(), 3, storage::FsyncPolicy::kBatch));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  EXPECT_EQ(recovered.osn(), osn);
  EXPECT_EQ(recovered.StateDigest(), digest);

  // The recovered resolver keeps serving: more ops land and match a
  // never-persisted reference over the whole stream.
  std::vector<StorageOp> more = GenerateStorageOps(32, 20);
  for (const StorageOp& op : more) ApplyStorageOp(&recovered, op);
  ShardedResolver reference(&matcher, ShardedResolverOptions{});
  for (const StorageOp& op : ops) ApplyStorageOp(&reference, op);
  for (const StorageOp& op : more) ApplyStorageOp(&reference, op);
  EXPECT_EQ(recovered.StateDigest(), reference.StateDigest());
}

/// Runs the crash child to (and including) op `kill_after`, expecting it
/// to die by SIGKILL; `kill_after >= n_ops` expects a clean exit. A
/// non-empty `kill_stage` checkpoints every `snapshot_every` mutations and
/// kills inside one more checkpoint after op `kill_after` instead.
void RunChild(const std::string& data_dir, uint64_t seed, size_t n_ops,
              size_t kill_after, size_t shards, size_t snapshot_every = 0,
              const std::string& kill_stage = "") {
  std::string seed_arg = std::to_string(seed);
  std::string n_ops_arg = std::to_string(n_ops);
  std::string kill_arg = std::to_string(kill_after);
  std::string shards_arg = std::to_string(shards);
  std::string every_arg = std::to_string(snapshot_every);
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    const char* child = WEBER_SERVE_CRASH_CHILD_PATH;
    if (kill_stage.empty()) {
      execl(child, child, data_dir.c_str(), seed_arg.c_str(),
            n_ops_arg.c_str(), kill_arg.c_str(), shards_arg.c_str(),
            "always", static_cast<char*>(nullptr));
    } else {
      execl(child, child, data_dir.c_str(), seed_arg.c_str(),
            n_ops_arg.c_str(), kill_arg.c_str(), shards_arg.c_str(),
            "always", every_arg.c_str(), kill_stage.c_str(),
            static_cast<char*>(nullptr));
    }
    _exit(127);  // exec failed.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  if (kill_after < n_ops) {
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "child should have died by signal, wstatus=" << wstatus;
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  } else {
    ASSERT_TRUE(WIFEXITED(wstatus)) << "wstatus=" << wstatus;
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);
  }
}

/// The crash property at 8 shards: SIGKILL the child after op
/// `kill_after` (or inside the checkpoint after it), recover from the
/// eight WAL corpses and whatever snapshot generations they extend, and
/// the recovered state must digest-equal a single-shard reference over the
/// acknowledged prefix (fsync=always acknowledges exactly the applied
/// ops) — then stay digest-equal while the remaining ops run forward.
void CheckKillRecover(uint64_t seed, size_t n_ops, size_t kill_after,
                      size_t snapshot_every = 0,
                      const std::string& kill_stage = "") {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " kill_after=" + std::to_string(kill_after) + " stage=" +
               kill_stage);
  TempDir dir;
  RunChild(dir.path(), seed, n_ops, kill_after, 8, snapshot_every,
           kill_stage);

  matching::TokenJaccardMatcher matcher;
  ShardedResolver recovered(
      &matcher, DurableOptions(dir.path(), 8, storage::FsyncPolicy::kOff));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();

  std::vector<StorageOp> ops = GenerateStorageOps(seed, n_ops);
  // The reference runs at shards=1, so this doubles as a cross-shard-count
  // check of the recovered state.
  ShardedResolver reference(&matcher, ShardedResolverOptions{});
  size_t next = 0;
  ApplyUntilOsn(&reference, ops, recovered.osn(), &next);
  EXPECT_EQ(recovered.StateDigest(), reference.StateDigest());

  if (!kill_stage.empty()) {
    // Every acknowledged op survives a crash anywhere in the checkpoint,
    // and recovery leaves one generation: no temp file, no stale files.
    EXPECT_EQ(next, kill_after + 1);
    EXPECT_EQ(Generations(dir.path()), 1u);
  }

  for (size_t i = next; i < ops.size(); ++i) {
    ApplyStorageOp(&recovered, ops[i]);
    ApplyStorageOp(&reference, ops[i]);
  }
  EXPECT_EQ(recovered.StateDigest(), reference.StateDigest());
}

TEST(ShardedRecoveryTest, KillInsideCheckpointAtEightShards) {
  // Periodic checkpoints every 4 mutations, so the killed checkpoint
  // always has a snapshot generation to replace.
  CheckKillRecover(/*seed=*/5, /*n_ops=*/40, /*kill_after=*/21, 4,
                   "written");
  CheckKillRecover(/*seed=*/6, /*n_ops=*/40, /*kill_after=*/21, 4,
                   "renamed");
  CheckKillRecover(/*seed=*/7, /*n_ops=*/40, /*kill_after=*/21, 4,
                   "rotated");
}

TEST(ShardedRecoveryTest, KillAndRecoverAtEightShards) {
  CheckKillRecover(/*seed=*/1, /*n_ops=*/50, /*kill_after=*/0);
  CheckKillRecover(/*seed=*/2, /*n_ops=*/50, /*kill_after=*/7);
  CheckKillRecover(/*seed=*/3, /*n_ops=*/50, /*kill_after=*/29);
  CheckKillRecover(/*seed=*/4, /*n_ops=*/50, /*kill_after=*/48);
}

TEST(ShardedRecoveryTest, CleanChildRunRecoversWhole) {
  TempDir dir;
  RunChild(dir.path(), /*seed=*/9, /*n_ops=*/30, /*kill_after=*/30, 8);
  matching::TokenJaccardMatcher matcher;
  ShardedResolver recovered(
      &matcher, DurableOptions(dir.path(), 8, storage::FsyncPolicy::kOff));
  ASSERT_TRUE(recovered.recovery_status().ok());

  std::vector<StorageOp> ops = GenerateStorageOps(9, 30);
  ShardedResolver reference(&matcher, ShardedResolverOptions{});
  for (const StorageOp& op : ops) ApplyStorageOp(&reference, op);
  EXPECT_EQ(recovered.osn(), reference.osn());
  EXPECT_EQ(recovered.StateDigest(), reference.StateDigest());
}

TEST(ShardedRecoveryTest, TornTailRecordIsDropped) {
  TempDir dir;
  std::vector<StorageOp> ops = GenerateStorageOps(17, 20);
  matching::TokenJaccardMatcher matcher;
  uint64_t full_osn = 0;
  {
    ShardedResolver durable(
        &matcher,
        DurableOptions(dir.path(), 1, storage::FsyncPolicy::kAlways));
    ASSERT_TRUE(durable.recovery_status().ok());
    for (const StorageOp& op : ops) ApplyStorageOp(&durable, op);
    full_osn = durable.osn();
  }

  // Tear the single shard's WAL one byte short of the last record — the
  // torn tail must be dropped, recovering exactly one mutation fewer.
  std::string wal = dir.path() + "/shard-00/wal-0";
  struct stat st;
  ASSERT_EQ(stat(wal.c_str(), &st), 0);
  ASSERT_GT(st.st_size, 0);
  ASSERT_EQ(truncate(wal.c_str(), st.st_size - 1), 0);

  ShardedResolver recovered(
      &matcher, DurableOptions(dir.path(), 1, storage::FsyncPolicy::kOff));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();

  EXPECT_EQ(recovered.osn(), full_osn - 1);  // Exactly the torn record.
  ShardedResolver reference(&matcher, ShardedResolverOptions{});
  size_t next = 0;
  ApplyUntilOsn(&reference, ops, recovered.osn(), &next);
  EXPECT_EQ(recovered.StateDigest(), reference.StateDigest());
}

// Replay decodes one osn at a time, so a record whose frame is sound but
// whose descriptions do not decode must still fail the whole recovery,
// however many valid records come before it.
TEST(ShardedRecoveryTest, UndecodableRecordAfterValidOnesFailsClosed) {
  TempDir dir;
  matching::TokenJaccardMatcher matcher;
  uint64_t osn = 0;
  uint32_t next_gid = 0;
  {
    ShardedResolver durable(
        &matcher,
        DurableOptions(dir.path(), 1, storage::FsyncPolicy::kAlways));
    ASSERT_TRUE(durable.recovery_status().ok());
    for (const StorageOp& op : GenerateStorageOps(23, 12)) {
      ApplyStorageOp(&durable, op);
    }
    osn = durable.osn();
    next_gid = static_cast<uint32_t>(durable.size());
  }
  ASSERT_GT(osn, 0u);

  // The next ingest record, CRC-framed like any other: osn, participant
  // mask, one entity — whose URI claims more bytes than the record holds.
  std::string wal = dir.path() + "/shard-00/wal-0";
  struct stat st;
  ASSERT_EQ(stat(wal.c_str(), &st), 0);
  storage::ByteWriter payload;
  payload.PutU64(osn);
  payload.PutU64(1);
  payload.PutU32(1);
  payload.PutU32(next_gid);
  payload.PutU32(100);
  payload.PutRaw("u/x", 3);
  storage::WriteAheadLog log;
  ASSERT_TRUE(log.OpenExisting(wal, static_cast<uint64_t>(st.st_size),
                               static_cast<uint64_t>(st.st_size),
                               storage::FsyncPolicy::kAlways, 1)
                  .ok());
  constexpr uint8_t kServeIngest = 1;
  ASSERT_TRUE(log.Append(kServeIngest, payload.Take()).ok());
  log.Close();

  ShardedResolver recovered(
      &matcher, DurableOptions(dir.path(), 1, storage::FsyncPolicy::kOff));
  EXPECT_EQ(recovered.recovery_status().code(),
            storage::StorageErrc::kWalCorrupt)
      << recovered.recovery_status().ToString();
  EXPECT_NE(recovered.recovery_status().message().find("undecodable"),
            std::string::npos)
      << recovered.recovery_status().ToString();
}

TEST(ShardedRecoveryTest, ShardCountMismatchFailsClosed) {
  TempDir dir;
  matching::TokenJaccardMatcher matcher;
  {
    ShardedResolver durable(
        &matcher,
        DurableOptions(dir.path(), 4, storage::FsyncPolicy::kAlways));
    ASSERT_TRUE(durable.recovery_status().ok());
    std::vector<StorageOp> ops = GenerateStorageOps(5, 10);
    for (const StorageOp& op : ops) ApplyStorageOp(&durable, op);
  }
  ShardedResolver mismatched(
      &matcher, DurableOptions(dir.path(), 8, storage::FsyncPolicy::kOff));
  EXPECT_FALSE(mismatched.recovery_status().ok());
}

// ---------------------------------------------------------------------------
// Snapshot generations, at several shard counts
// ---------------------------------------------------------------------------

class ShardedSnapshotTest : public ::testing::TestWithParam<size_t> {
 protected:
  /// A small purge cap, so the snapshot must carry retired tokens.
  ShardedResolverOptions Options(const std::string& data_dir) const {
    ShardedResolverOptions options =
        DurableOptions(data_dir, GetParam(), storage::FsyncPolicy::kOff);
    options.index.max_block_size = 6;
    return options;
  }

  matching::TokenJaccardMatcher matcher_;
};

TEST_P(ShardedSnapshotTest, ReopenFromSnapshotIsBitEqual) {
  TempDir dir;
  std::vector<StorageOp> ops = GenerateStorageOps(41, 60);
  uint64_t digest = 0;
  uint64_t osn = 0;
  uint64_t generation = 0;
  {
    ShardedResolver durable(&matcher_, Options(dir.path()));
    ASSERT_TRUE(durable.recovery_status().ok());
    for (size_t i = 0; i < 40; ++i) ApplyStorageOp(&durable, ops[i]);
    ASSERT_TRUE(durable.Checkpoint().ok());
    generation = durable.osn();
    EXPECT_EQ(durable.generation(), generation);
    // A WAL tail on top of the snapshot.
    for (size_t i = 40; i < ops.size(); ++i) ApplyStorageOp(&durable, ops[i]);
    digest = durable.StateDigest();
    osn = durable.osn();
  }
  EXPECT_EQ(Generations(dir.path()), 1u);

  ShardedResolver recovered(&matcher_, Options(dir.path()));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  EXPECT_EQ(recovered.generation(), generation);
  EXPECT_EQ(recovered.osn(), osn);
  EXPECT_EQ(recovered.StateDigest(), digest);
}

TEST_P(ShardedSnapshotTest, IngestAfterLoadMatchesNeverCheckpointedRun) {
  TempDir dir;
  std::vector<StorageOp> ops = GenerateStorageOps(43, 90);
  {
    ShardedResolverOptions options = Options(dir.path());
    options.snapshot_every = 3;
    ShardedResolver durable(&matcher_, options);
    ASSERT_TRUE(durable.recovery_status().ok());
    for (size_t i = 0; i < 45; ++i) ApplyStorageOp(&durable, ops[i]);
    ASSERT_TRUE(durable.Checkpoint().ok());  // Reopen with no WAL tail.
  }
  ShardedResolver recovered(&matcher_, Options(dir.path()));
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  for (size_t i = 45; i < ops.size(); ++i) ApplyStorageOp(&recovered, ops[i]);

  // The never-checkpointed run, at this shard count and at one shard: the
  // restored token index (postings, purge marks, removed ids) and
  // vocabulary must produce the same candidates in the same order.
  ShardedResolverOptions memory = Options("");
  ShardedResolver reference(&matcher_, memory);
  memory.shards = 1;
  ShardedResolver single(&matcher_, memory);
  for (const StorageOp& op : ops) {
    ApplyStorageOp(&reference, op);
    ApplyStorageOp(&single, op);
  }
  ASSERT_GT(reference.IndexStats().purged_tokens, 0u);
  EXPECT_EQ(recovered.StateDigest(), reference.StateDigest());
  EXPECT_EQ(recovered.StateDigest(), single.StateDigest());
  EXPECT_EQ(recovered.candidates(), reference.candidates());
  EXPECT_EQ(recovered.comparisons(), reference.comparisons());
  EXPECT_EQ(recovered.IndexStats().purged_tokens,
            reference.IndexStats().purged_tokens);
  EXPECT_EQ(recovered.IndexStats().tokens, reference.IndexStats().tokens);
}

TEST_P(ShardedSnapshotTest, VersionOneDirectoryRecoversAsGenerationZero) {
  TempDir dir;
  std::vector<StorageOp> ops = GenerateStorageOps(47, 30);
  uint64_t digest = 0;
  {
    ShardedResolver durable(&matcher_, Options(dir.path()));
    ASSERT_TRUE(durable.recovery_status().ok());
    for (const StorageOp& op : ops) ApplyStorageOp(&durable, op);
    ASSERT_TRUE(durable.Sync().ok());
    digest = durable.StateDigest();
  }
  // Rewrite serve-meta as the v1 manifest of a build without snapshot
  // generations (same layout, version field 1): the dir holds wal-0 only.
  const std::string meta = dir.path() + "/serve-meta";
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(storage::ReadFileBytes(meta, &bytes).ok());
  ASSERT_EQ(bytes.size(), 24u);
  bytes[8] = 1;
  ASSERT_TRUE(storage::AtomicWriteFile(meta, bytes).ok());

  {
    ShardedResolver recovered(&matcher_, Options(dir.path()));
    ASSERT_TRUE(recovered.recovery_status().ok())
        << recovered.recovery_status().ToString();
    EXPECT_EQ(recovered.generation(), 0u);
    EXPECT_EQ(recovered.StateDigest(), digest);
    // The first checkpoint upgrades the manifest before it commits.
    ASSERT_TRUE(recovered.Checkpoint().ok());
  }
  ASSERT_TRUE(storage::ReadFileBytes(meta, &bytes).ok());
  EXPECT_EQ(bytes[8], 2);
  ShardedResolver reopened(&matcher_, Options(dir.path()));
  ASSERT_TRUE(reopened.recovery_status().ok());
  EXPECT_GT(reopened.generation(), 0u);
  EXPECT_EQ(reopened.StateDigest(), digest);
}

TEST_P(ShardedSnapshotTest, ForeignSnapshotFailsClosed) {
  std::vector<StorageOp> ops = GenerateStorageOps(53, 25);
  auto checkpointed = [&](const std::string& data_dir,
                          ShardedResolverOptions options) {
    options.data_dir = data_dir;
    ShardedResolver durable(&matcher_, options);
    EXPECT_TRUE(durable.recovery_status().ok());
    for (const StorageOp& op : ops) ApplyStorageOp(&durable, op);
    EXPECT_TRUE(durable.Checkpoint().ok());
    return data_dir + "/serve-snapshot-" + std::to_string(durable.osn());
  };
  TempDir dir;
  const std::string own = checkpointed(dir.path(), Options(dir.path()));

  // Same ops (so the same generation) under another threshold, and under
  // another shard count: swapped in, either must be refused.
  TempDir threshold_dir;
  ShardedResolverOptions other = Options("");
  other.match_threshold = 0.7;
  const std::string other_threshold = checkpointed(threshold_dir.path(), other);
  TempDir shards_dir;
  other = Options("");
  other.shards = GetParam() == 8 ? 2 : 8;
  const std::string other_shards = checkpointed(shards_dir.path(), other);

  for (const std::string& foreign : {other_threshold, other_shards}) {
    SCOPED_TRACE(foreign);
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(storage::ReadFileBytes(foreign, &bytes).ok());
    ASSERT_TRUE(storage::AtomicWriteFile(own, bytes).ok());
    ShardedResolver recovered(&matcher_, Options(dir.path()));
    EXPECT_EQ(recovered.recovery_status().code(),
              storage::StorageErrc::kConfigMismatch)
        << recovered.recovery_status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedSnapshotTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{8}));

// Reopening a WAL-only directory replays its history through the ingest
// path; the weber.incremental.* work counters must count only the live
// ingests after the reopen, not the replayed ones.
class RecoveryCountersTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RecoveryCountersTest, WalReplayIsNotCountedAsLiveWork) {
  TempDir dir;
  matching::TokenJaccardMatcher matcher;
  {
    ShardedResolver durable(
        &matcher,
        DurableOptions(dir.path(), GetParam(), storage::FsyncPolicy::kOff));
    ASSERT_TRUE(durable.recovery_status().ok());
    for (const StorageOp& op : GenerateStorageOps(59, 40)) {
      ApplyStorageOp(&durable, op);
    }
    ASSERT_TRUE(durable.Sync().ok());  // Never checkpointed.
    EXPECT_EQ(durable.generation(), 0u);
  }

  obs::MetricsRegistry registry;
  ShardedResolverOptions options =
      DurableOptions(dir.path(), GetParam(), storage::FsyncPolicy::kOff);
  options.metrics = &registry;
  ShardedResolver recovered(&matcher, options);
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status().ToString();
  EXPECT_GT(registry.GetCounter("weber.storage.wal.replayed_records").Value(),
            0u);
  for (const char* name :
       {"weber.incremental.ingested", "weber.incremental.batches",
        "weber.incremental.candidates", "weber.incremental.comparisons",
        "weber.incremental.removed"}) {
    EXPECT_EQ(registry.GetCounter(name).Value(), 0u) << name;
  }
  auto timed_batches = [&registry] {
    return registry.GetHistogram("weber.incremental.ingest_seconds")
        .Snapshot()
        .count;
  };
  EXPECT_EQ(timed_batches(), 0u);

  uint64_t ingested = 0;
  uint64_t batches = 0;
  for (const StorageOp& op : GenerateStorageOps(61, 12)) {
    if (op.remove) continue;
    ingested += op.batch.size();
    ++batches;
    recovered.Ingest(op.batch);
  }
  ASSERT_GT(ingested, 0u);
  EXPECT_EQ(registry.GetCounter("weber.incremental.ingested").Value(),
            ingested);
  EXPECT_EQ(registry.GetCounter("weber.incremental.batches").Value(),
            batches);
  EXPECT_EQ(timed_batches(), batches);
}

INSTANTIATE_TEST_SUITE_P(Shards, RecoveryCountersTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace weber::serve
