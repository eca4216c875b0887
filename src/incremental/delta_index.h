#ifndef WEBER_INCREMENTAL_DELTA_INDEX_H_
#define WEBER_INCREMENTAL_DELTA_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocking/block.h"
#include "blocking/token_blocking.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "text/normalizer.h"

namespace weber::storage {
class SnapshotCodec;
}  // namespace weber::storage

namespace weber::incremental {

/// Lifetime counters of a delta index.
struct DeltaIndexStats {
  /// Postings created or extended by Absorb — the incremental work unit.
  /// Ingesting one entity bumps this by at most its distinct-token count,
  /// never by the index size: the counter that proves no full rebuild.
  uint64_t updates = 0;
  /// Full builds (always 0 on the serve path; kept for the rebuild-vs-
  /// delta comparison in tests and benches).
  uint64_t full_builds = 0;
  /// Tokens retired online by the posting-size cap.
  uint64_t purged_tokens = 0;
  /// Distinct tokens currently indexed (purged ones included).
  size_t tokens = 0;
};

/// Incrementally maintained token-blocking index.
///
/// Mirrors blocking::TokenBlocking over a mutable store: every distinct
/// normalised value token owns a posting of the entity ids featuring it.
/// Absorb(id, description) appends the new entity to its tokens' postings
/// and emits exactly the *new* candidate pairs — the pairs joining the new
/// entity with the entities already posted under a shared token. Because
/// every unordered pair has a unique later-ingested member, replaying a
/// collection through Absorb emits each distinct batch-blocking pair
/// exactly once, which is what makes ingest-mode resolution equivalent to
/// the one-shot pipeline.
///
/// The size cap applies block purging online (the streaming analogue of
/// TokenBlockingOptions::max_block_size): a posting that grows beyond the
/// cap is retired — its memory released, no further pairs emitted from it.
/// Pairs it emitted before crossing the cap are not retracted; retired
/// tokens are excluded from ToBlocks, matching the batch semantics of
/// dropping the oversized block outright.
class IncrementalTokenIndex {
 public:
  /// Options are shared with the batch blocker so one config drives both.
  explicit IncrementalTokenIndex(blocking::TokenBlockingOptions options = {})
      : options_(std::move(options)) {}

  /// Indexes a new entity and appends its new candidate pairs (each pair
  /// once, in first-shared-token order) to `new_pairs`. Ids must be
  /// absorbed in ascending order, once each.
  void Absorb(model::EntityId id, const model::EntityDescription& description,
              std::vector<model::IdPair>* new_pairs);

  /// A candidate found through a shared token, tagged with the token's
  /// position in the new entity's full token list. Sorting one entity's
  /// candidates from several token-partitioned indexes by (position,
  /// posting order) and keeping each other-id's first occurrence yields
  /// exactly the order Absorb emits from a single index.
  struct PositionedCandidate {
    model::EntityId other = 0;
    uint32_t position = 0;
  };

  /// Token-partitioned absorb: indexes only `tokens` — the subset of the
  /// entity's TokensOf list this index owns, each with its position in the
  /// full list, in ascending position order. Emits PositionedCandidates
  /// (deduplicated per call, first occurrence kept). Per-token behaviour
  /// (lazy compaction, purging, stats) is identical to Absorb, so
  /// splitting one entity's tokens across indexes by token and merging
  /// the tagged candidates reproduces the single-index stream.
  void AbsorbTokens(
      model::EntityId id,
      const std::vector<std::pair<std::string, uint32_t>>& tokens,
      std::vector<PositionedCandidate>* candidates);

  /// The normalised, length-filtered value tokens Absorb indexes, in
  /// emission order — public so token-partitioned callers compute the
  /// exact token/position lists AbsorbTokens expects.
  std::vector<std::string> TokensOf(
      const model::EntityDescription& description) const;

  /// Read-only probe: the distinct indexed entities sharing at least one
  /// token with `description`, in first-shared-token order. Used to
  /// re-block merged representatives without inserting them.
  void Query(const model::EntityDescription& description,
             std::vector<model::EntityId>* candidates) const;

  /// Drops an entity from the index: it stops appearing in emitted pairs,
  /// queries and exported blocks. Postings are compacted lazily as they
  /// are next touched.
  void Remove(model::EntityId id);

  const DeltaIndexStats& stats() const { return stats_; }

  /// Exports the live postings as a BlockCollection (token-sorted, purged
  /// tokens dropped) — byte-compatible with TokenBlocking::Build over the
  /// same live entities, for evaluation and replay verification.
  blocking::BlockCollection ToBlocks(
      const model::EntityCollection* collection) const;

 private:
  friend class weber::storage::SnapshotCodec;

  struct Posting {
    std::vector<model::EntityId> entities;  // Ascending (absorb order).
    bool purged = false;
  };

  blocking::TokenBlockingOptions options_;
  std::unordered_map<std::string, Posting> postings_;
  std::unordered_set<model::EntityId> removed_;
  DeltaIndexStats stats_;
};

}  // namespace weber::incremental

#endif  // WEBER_INCREMENTAL_DELTA_INDEX_H_
