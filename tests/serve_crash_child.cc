// Child binary of the sharded kill-and-recover property test
// (serve_recovery_test): streams a deterministic op sequence through a
// durable ShardedResolver and, after acknowledging op `kill_after`,
// SIGKILLs itself — no destructors, no flushes, exactly the disk state
// an OS-level crash would leave across the per-shard WALs. The parent
// recovers from the directory and asserts bit-equality.
//
// Usage: serve_crash_child DATA_DIR SEED N_OPS KILL_AFTER SHARDS FSYNC
//                          [SNAPSHOT_EVERY KILL_STAGE]
//   KILL_AFTER      index of the last op to apply before raise(SIGKILL);
//                   >= N_OPS runs to completion and exits 0.
//   FSYNC           always | batch | off
//   SNAPSHOT_EVERY  checkpoint every N mutations while the ops run.
//   KILL_STAGE      written | renamed | rotated: after op KILL_AFTER, run
//                   one more checkpoint and die at that stage of it
//                   instead of after the op.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "matching/matcher.h"
#include "serve/sharded_resolver.h"
#include "tests/storage_ops.h"

int main(int argc, char** argv) {
  using namespace weber;
  if (argc != 7 && argc != 9) {
    std::fprintf(stderr,
                 "usage: serve_crash_child DATA_DIR SEED N_OPS KILL_AFTER "
                 "SHARDS FSYNC [SNAPSHOT_EVERY KILL_STAGE]\n");
    return 2;
  }
  serve::ShardedResolverOptions options;
  options.data_dir = argv[1];
  uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  size_t n_ops = std::strtoull(argv[3], nullptr, 10);
  size_t kill_after = std::strtoull(argv[4], nullptr, 10);
  options.shards = std::strtoull(argv[5], nullptr, 10);
  if (std::strcmp(argv[6], "always") == 0) {
    options.fsync = storage::FsyncPolicy::kAlways;
  } else if (std::strcmp(argv[6], "batch") == 0) {
    options.fsync = storage::FsyncPolicy::kBatch;
  } else {
    options.fsync = storage::FsyncPolicy::kOff;
  }

  // Only the final checkpoint is armed; the periodic ones run through.
  bool armed = false;
  std::optional<serve::CheckpointStage> kill_stage;
  if (argc == 9) {
    options.snapshot_every = std::strtoull(argv[7], nullptr, 10);
    if (std::strcmp(argv[8], "written") == 0) {
      kill_stage = serve::CheckpointStage::kSnapshotWritten;
    } else if (std::strcmp(argv[8], "renamed") == 0) {
      kill_stage = serve::CheckpointStage::kSnapshotRenamed;
    } else {
      kill_stage = serve::CheckpointStage::kWalsRotated;
    }
    options.checkpoint_hook = [&](serve::CheckpointStage stage) {
      if (armed && stage == *kill_stage) raise(SIGKILL);
    };
  }

  matching::TokenJaccardMatcher matcher;
  serve::ShardedResolver resolver(&matcher, options);
  if (!resolver.recovery_status().ok()) {
    std::fprintf(stderr, "child recovery failed: %s\n",
                 resolver.recovery_status().ToString().c_str());
    return 3;
  }
  std::vector<testing::StorageOp> ops =
      testing::GenerateStorageOps(seed, n_ops);
  for (size_t i = 0; i < ops.size(); ++i) {
    testing::ApplyStorageOp(&resolver, ops[i]);
    if (i != kill_after) continue;
    if (!kill_stage.has_value()) raise(SIGKILL);  // Dies here.
    armed = true;
    storage::Status status = resolver.Checkpoint();
    // Reaching this line means the checkpoint had nothing to fold in (or
    // failed) and never passed the armed stage.
    std::fprintf(stderr, "armed checkpoint returned: %s\n",
                 status.ToString().c_str());
    return 4;
  }
  return 0;
}
