#include "incremental/resolver.h"

#include <algorithm>
#include <utility>

#include "core/executor.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::incremental {

IncrementalResolver::IncrementalResolver(const matching::Matcher* matcher,
                                         ResolverOptions options)
    : matcher_(matcher, options.match_threshold),
      options_(std::move(options)),
      token_index_(options_.index) {
  if (options_.prepared_matching && matching::Preparable(*matcher)) {
    signatures_.emplace(
        matching::SignatureStore(matching::OptionsFor(*matcher)));
    signatures_->SetDescriptionProvider(
        [this](model::EntityId id, model::EntityDescription* scratch)
            -> const model::EntityDescription* {
          if (!store_.alive(id)) return nullptr;
          *scratch = store_.at(id);
          return scratch;
        });
    // Bind the prepared counters to the configured registry (falls through
    // to the caller's ambient one when options_.metrics is null).
    obs::ScopedRegistry attach(options_.metrics);
    prepared_ = matching::Prepare(matcher_.matcher(), *signatures_);
    if (prepared_ == nullptr) signatures_.reset();  // e.g. OracleMatcher.
  }
}

obs::MetricsRegistry* IncrementalResolver::Registry() const {
  return options_.metrics != nullptr ? options_.metrics : obs::Current();
}

void IncrementalResolver::EnsureForestFresh() {
  if (!forest_dirty_) return;
  forest_dirty_ = false;
  forest_ = util::UnionFind(store_.size());
  members_.clear();
  rep_cache_.clear();
  scored_roots_.clear();
  // matches_ only holds edges between live entities (Remove drops the
  // rest), so the surviving forest is their transitive closure.
  for (const model::IdPair& pair : matches_) {
    model::EntityId ra = forest_.Find(pair.low);
    model::EntityId rb = forest_.Find(pair.high);
    if (ra != rb) MergeClusters(ra, rb);
  }
}

const std::vector<model::EntityId>& IncrementalResolver::MembersOf(
    model::EntityId root) {
  auto it = members_.find(root);
  if (it != members_.end()) return it->second;
  singleton_scratch_.assign(1, root);
  return singleton_scratch_;
}

const model::EntityDescription& IncrementalResolver::RepOf(
    model::EntityId root, model::EntityDescription* scratch) {
  auto members_it = members_.find(root);
  if (members_it == members_.end()) {
    *scratch = store_.at(root);
    return *scratch;
  }
  auto cached = rep_cache_.find(root);
  if (cached != rep_cache_.end()) return *cached->second;
  // Merge in ascending id order: deterministic regardless of the merge
  // history that produced the cluster.
  const std::vector<model::EntityId>& members = members_it->second;
  auto rep = std::make_unique<model::EntityDescription>(
      store_.at(members.front()));
  for (size_t i = 1; i < members.size(); ++i) {
    rep->MergeFrom(store_.at(members[i]));
  }
  const model::EntityDescription& result = *rep;
  rep_cache_.emplace(root, std::move(rep));
  return result;
}

model::EntityId IncrementalResolver::MergeClusters(model::EntityId ra,
                                                   model::EntityId rb) {
  auto take = [this](model::EntityId root) {
    auto it = members_.find(root);
    if (it == members_.end()) return std::vector<model::EntityId>{root};
    std::vector<model::EntityId> members = std::move(it->second);
    members_.erase(it);
    return members;
  };
  std::vector<model::EntityId> ma = take(ra);
  std::vector<model::EntityId> mb = take(rb);
  std::vector<model::EntityId> merged;
  merged.reserve(ma.size() + mb.size());
  std::merge(ma.begin(), ma.end(), mb.begin(), mb.end(),
             std::back_inserter(merged));
  rep_cache_.erase(ra);
  rep_cache_.erase(rb);
  forest_.Union(ra, rb);
  model::EntityId root = forest_.Find(ra);
  members_[root] = std::move(merged);
  return root;
}

void IncrementalResolver::CommitMatch(const model::IdPair& pair) {
  matches_.push_back(pair);
  model::EntityId ra = forest_.Find(pair.low);
  model::EntityId rb = forest_.Find(pair.high);
  if (ra != rb) {
    MergeClusters(ra, rb);
    ++merges_;
  }
}

void IncrementalResolver::ScoreRoots(model::EntityId ra, model::EntityId rb,
                                     std::vector<model::EntityId>* requeue) {
  model::IdPair key = model::IdPair::Of(ra, rb);
  std::pair<uint32_t, uint32_t> sizes{
      static_cast<uint32_t>(forest_.SizeOf(key.low)),
      static_cast<uint32_t>(forest_.SizeOf(key.high))};
  auto [it, inserted] = scored_roots_.try_emplace(key, sizes);
  if (!inserted) {
    if (it->second == sizes) return;  // Unchanged since last scored.
    it->second = sizes;
  }
  ++comparisons_;
  model::EntityDescription scratch_a;
  model::EntityDescription scratch_b;
  bool matched =
      matcher_.Matches(RepOf(ra, &scratch_a), RepOf(rb, &scratch_b));
  if (observer_) observer_(key, matched);
  if (matched) {
    matches_.push_back(key);
    model::EntityId root = MergeClusters(ra, rb);
    ++merges_;
    requeue->push_back(root);
  }
}

void IncrementalResolver::ResolveBatchPropagating(
    const std::vector<model::IdPair>& candidates) {
  // R-Swoosh semantics: strictly serial, every comparison sees the merged
  // representatives produced by earlier ones, and each merge re-enters
  // the queue for re-blocking (iterative/rswoosh.cc compares against the
  // full resolved set; here the delta index narrows that to clusters
  // sharing a token).
  std::vector<model::EntityId> requeue;
  std::vector<model::EntityId> probe;
  model::EntityDescription scratch;
  for (const model::IdPair& pair : candidates) {
    model::EntityId ra = forest_.Find(pair.low);
    model::EntityId rb = forest_.Find(pair.high);
    if (ra == rb) continue;  // Already resolved together: merge saving.
    ScoreRoots(ra, rb, &requeue);
    while (!requeue.empty()) {
      model::EntityId root = forest_.Find(requeue.back());
      requeue.pop_back();
      ++requeues_;
      probe.clear();
      token_index_.Query(RepOf(root, &scratch), &probe);
      for (model::EntityId other : probe) {
        if (!store_.alive(other)) continue;
        model::EntityId merged_root = forest_.Find(root);
        model::EntityId other_root = forest_.Find(other);
        if (merged_root == other_root) continue;
        ScoreRoots(merged_root, other_root, &requeue);
      }
    }
  }
}

std::vector<model::EntityId> IncrementalResolver::Ingest(
    std::vector<model::EntityDescription> batch) {
  util::Timer timer;
  EnsureForestFresh();
  uint64_t index_updates_before = token_index_.stats().updates;
  // The batch is absorbed as it came in, under the ids Append is about to
  // issue, so ingest never decodes a stored row.
  std::vector<model::EntityId> ids(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ids[i] = static_cast<model::EntityId>(store_.size() + i);
  }
  if (signatures_.has_value()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      signatures_->Absorb(ids[i], batch[i]);
    }
  }

  // Delta blocking: absorb each new entity in id order; the index emits
  // only pairs that involve the entity being absorbed, so the list stays
  // free of repeats across batches by construction.
  std::vector<model::IdPair> candidates;
  for (size_t i = 0; i < batch.size(); ++i) {
    token_index_.Absorb(ids[i], batch[i], &candidates);
  }
  candidates_ += candidates.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    model::EntityId id = store_.Append(batch[i]);
    WEBER_CHECK_EQ(id, ids[i]) << "EntityStore issued an unexpected id";
  }
  forest_.Grow(store_.size());

  uint64_t comparisons_before = comparisons_;
  uint64_t merges_before = merges_;
  if (options_.merge_propagation) {
    ResolveBatchPropagating(candidates);
  } else if (!candidates.empty()) {
    // Parallel scoring, ordered commit — the RunProgressive pattern. The
    // verdicts only depend on the immutable stored descriptions (or their
    // interned signatures, which score bit-equal), so any chunking of the
    // loop commits the identical result.
    std::vector<char> verdicts(candidates.size(), 0);
    auto score = [&](size_t i) {
      const model::IdPair& pair = candidates[i];
      bool matched =
          prepared_ != nullptr
              ? prepared_->Matches(pair.low, pair.high, matcher_.threshold())
              : matcher_.Matches(store_.at(pair.low), store_.at(pair.high));
      verdicts[i] = matched ? 1 : 0;
    };
    if (candidates.size() == 1) {
      score(0);
    } else {
      core::Executor::Shared().ParallelFor(candidates.size(), score);
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      bool matched = verdicts[i] != 0;
      ++comparisons_;
      if (observer_) observer_(candidates[i], matched);
      if (matched) CommitMatch(candidates[i]);
    }
  }
  ++batches_;

  if (obs::MetricsRegistry* registry = Registry()) {
    const DeltaIndexStats& index = token_index_.stats();
    if (!replaying_) {
      registry->GetCounter("weber.incremental.ingested").Add(ids.size());
      registry->GetCounter("weber.incremental.batches").Increment();
      registry->GetCounter("weber.incremental.candidates")
          .Add(candidates.size());
      registry->GetCounter("weber.incremental.comparisons")
          .Add(comparisons_ - comparisons_before);
      registry->GetCounter("weber.incremental.merges")
          .Add(merges_ - merges_before);
      // Delta-index proof-of-work counters: updates grows by at most the
      // batch's token count per ingest; full_builds stays 0 on this path.
      registry->GetCounter("weber.incremental.index_updates")
          .Add(index.updates - index_updates_before);
      registry->GetCounter("weber.incremental.index_full_builds")
          .Add(index.full_builds);
      registry->GetHistogram("weber.incremental.ingest_seconds")
          .Record(timer.ElapsedSeconds());
      registry->GetHistogram("weber.incremental.batch_entities")
          .Record(static_cast<double>(ids.size()));
    }
    registry->GetGauge("weber.incremental.live_entities")
        .Set(static_cast<double>(store_.live_count()));
    registry->GetGauge("weber.incremental.index_tokens")
        .Set(static_cast<double>(index.tokens));
    registry->GetGauge("weber.incremental.store_bytes")
        .Set(static_cast<double>(store_.ByteSize()));
    if (signatures_.has_value()) {
      registry->GetGauge("weber.matching.signature.arena_bytes")
          .Set(static_cast<double>(signatures_->ArenaBytes()));
      registry->GetGauge("weber.matching.signature.vocabulary")
          .Set(static_cast<double>(signatures_->vocabulary_size()));
      registry->GetGauge("weber.matching.signature.released_bytes")
          .Set(static_cast<double>(signatures_->released_bytes()));
    }
  }
  return ids;
}

std::optional<IncrementalResolver::Resolution> IncrementalResolver::Resolve(
    model::EntityId id) {
  if (!store_.alive(id)) return std::nullopt;
  EnsureForestFresh();
  Resolution resolution;
  resolution.representative = forest_.Find(id);
  resolution.members = MembersOf(resolution.representative);
  return resolution;
}

bool IncrementalResolver::Remove(model::EntityId id) {
  if (!store_.Tombstone(id)) return false;
  token_index_.Remove(id);
  if (signatures_.has_value()) signatures_->Release(id);
  size_t before = matches_.size();
  std::erase_if(matches_, [id](const model::IdPair& pair) {
    return pair.low == id || pair.high == id;
  });
  // Only a clustered entity can change anyone else's resolution; dropping
  // a singleton leaves the forest exact.
  if (matches_.size() != before) forest_dirty_ = true;
  ++removed_;
  if (obs::MetricsRegistry* registry = Registry()) {
    if (!replaying_) {
      registry->GetCounter("weber.incremental.removed").Increment();
    }
    registry->GetGauge("weber.incremental.live_entities")
        .Set(static_cast<double>(store_.live_count()));
  }
  return true;
}

matching::Clusters IncrementalResolver::Clusters() {
  EnsureForestFresh();
  matching::Clusters clusters;
  std::unordered_map<model::EntityId, size_t> slot_of_root;
  for (model::EntityId id = 0; id < store_.size(); ++id) {
    if (!store_.alive(id)) continue;
    model::EntityId root = forest_.Find(id);
    auto [it, inserted] = slot_of_root.try_emplace(root, clusters.size());
    if (inserted) clusters.emplace_back();
    clusters[it->second].push_back(id);
  }
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetGauge("weber.incremental.clusters")
        .Set(static_cast<double>(clusters.size()));
  }
  return clusters;
}

}  // namespace weber::incremental
