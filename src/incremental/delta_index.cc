#include "incremental/delta_index.h"

#include <algorithm>
#include <map>

#include "text/tokenizer.h"
#include "util/check.h"

namespace weber::incremental {

std::vector<std::string> IncrementalTokenIndex::TokensOf(
    const model::EntityDescription& description) const {
  std::vector<std::string> tokens =
      text::ValueTokens(description, options_.normalize);
  if (options_.min_token_length > 1) {
    std::erase_if(tokens, [this](const std::string& token) {
      return token.size() < options_.min_token_length;
    });
  }
  return tokens;
}

void IncrementalTokenIndex::Absorb(model::EntityId id,
                                   const model::EntityDescription& description,
                                   std::vector<model::IdPair>* new_pairs) {
  std::unordered_set<model::EntityId> paired;
  for (std::string& token : TokensOf(description)) {
    Posting& posting = postings_[std::move(token)];
    if (posting.purged) continue;
    ++stats_.updates;
    // Lazy compaction: drop removed ids the next time a posting is
    // touched, so memory tracks the live set without a global sweep.
    if (!removed_.empty()) {
      std::erase_if(posting.entities, [this](model::EntityId e) {
        return removed_.contains(e);
      });
    }
    if (new_pairs != nullptr) {
      for (model::EntityId other : posting.entities) {
        WEBER_DCHECK_NE(other, id)
            << "entity absorbed twice without Remove; would emit a "
            << "self-pair";
        if (paired.insert(other).second) {
          new_pairs->push_back(model::IdPair::Of(other, id));
        }
      }
    }
    posting.entities.push_back(id);
    if (options_.max_block_size != 0 &&
        posting.entities.size() > options_.max_block_size) {
      posting.purged = true;
      posting.entities.clear();
      posting.entities.shrink_to_fit();
      ++stats_.purged_tokens;
    }
  }
  stats_.tokens = postings_.size();
}

void IncrementalTokenIndex::AbsorbTokens(
    model::EntityId id,
    const std::vector<std::pair<std::string, uint32_t>>& tokens,
    std::vector<PositionedCandidate>* candidates) {
  // Per-call dedup: tokens arrive in ascending position order and postings
  // iterate in absorb (ascending-id) order, so first-insertion-wins keeps
  // each other-id's minimal (position, posting-order) occurrence — the one
  // the merged cross-index sort must surface.
  std::unordered_set<model::EntityId> paired;
  for (const auto& [token, position] : tokens) {
    Posting& posting = postings_[token];
    if (posting.purged) continue;
    ++stats_.updates;
    if (!removed_.empty()) {
      std::erase_if(posting.entities, [this](model::EntityId e) {
        return removed_.contains(e);
      });
    }
    if (candidates != nullptr) {
      for (model::EntityId other : posting.entities) {
        WEBER_DCHECK_NE(other, id)
            << "entity absorbed twice without Remove; would emit a "
            << "self-pair";
        if (paired.insert(other).second) {
          candidates->push_back(PositionedCandidate{other, position});
        }
      }
    }
    posting.entities.push_back(id);
    if (options_.max_block_size != 0 &&
        posting.entities.size() > options_.max_block_size) {
      posting.purged = true;
      posting.entities.clear();
      posting.entities.shrink_to_fit();
      ++stats_.purged_tokens;
    }
  }
  stats_.tokens = postings_.size();
}

void IncrementalTokenIndex::Query(
    const model::EntityDescription& description,
    std::vector<model::EntityId>* candidates) const {
  std::unordered_set<model::EntityId> seen;
  for (const std::string& token : TokensOf(description)) {
    auto it = postings_.find(token);
    if (it == postings_.end() || it->second.purged) continue;
    for (model::EntityId other : it->second.entities) {
      if (removed_.contains(other)) continue;
      if (seen.insert(other).second) candidates->push_back(other);
    }
  }
}

void IncrementalTokenIndex::Remove(model::EntityId id) {
  removed_.insert(id);
}

blocking::BlockCollection IncrementalTokenIndex::ToBlocks(
    const model::EntityCollection* collection) const {
  // Token-sorted export so the result is byte-equal to the batch builder's
  // std::map iteration.
  std::map<std::string, const Posting*> sorted;
  for (const auto& [token, posting] : postings_) {
    if (!posting.purged) sorted.emplace(token, &posting);
  }
  blocking::BlockCollection result(collection);
  for (const auto& [token, posting] : sorted) {
    blocking::Block block;
    block.key = token;
    block.entities.reserve(posting->entities.size());
    for (model::EntityId id : posting->entities) {
      if (!removed_.contains(id)) block.entities.push_back(id);
    }
    result.AddBlock(std::move(block));
  }
  return result;
}

}  // namespace weber::incremental
