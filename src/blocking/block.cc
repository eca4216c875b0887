#include "blocking/block.h"

#include <algorithm>

#include "core/executor.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::blocking {

uint64_t Block::NumComparisons(
    const model::EntityCollection& collection) const {
  uint64_t n = entities.size();
  if (n < 2) return 0;
  if (collection.setting() == model::ErSetting::kDirty) {
    return n * (n - 1) / 2;
  }
  uint64_t from_first = 0;
  for (model::EntityId id : entities) {
    if (collection.InFirstSource(id)) ++from_first;
  }
  return from_first * (n - from_first);
}

void BlockCollection::AddBlock(Block block) {
  ++keys_emitted_;
  std::sort(block.entities.begin(), block.entities.end());
  block.entities.erase(
      std::unique(block.entities.begin(), block.entities.end()),
      block.entities.end());
  if (block.entities.size() < 2) return;
  // Every id a blocker emits must resolve in the collection: an out-of-
  // range id here would index out of bounds in EntityToBlocks and every
  // downstream consumer. entities is sorted, so checking back() covers all.
  if (collection_ != nullptr) {
    WEBER_CHECK_LT(block.entities.back(), collection_->size())
        << "block '" << block.key << "' names an entity outside the "
        << "collection";
  }
  if (collection_ != nullptr && block.NumComparisons(*collection_) == 0) {
    return;  // e.g., clean-clean block with entities from one source only.
  }
  blocks_.push_back(std::move(block));
}

uint64_t BlockCollection::ComparisonsOf(const Block& block) const {
  return collection_ != nullptr ? block.NumComparisons(*collection_)
                                : block.size() * (block.size() - 1) / 2;
}

uint64_t BlockCollection::TotalComparisonsWithRedundancy() const {
  uint64_t total = 0;
  for (const Block& block : blocks_) total += ComparisonsOf(block);
  return total;
}

model::IdPairSet BlockCollection::DistinctPairs() const {
  model::IdPairSet pairs;
  VisitDistinctPairs([&pairs](model::EntityId a, model::EntityId b) {
    pairs.insert(model::IdPair::Of(a, b));
  });
  return pairs;
}

void BlockCollection::VisitDistinctPairs(
    const std::function<void(model::EntityId, model::EntityId)>& visitor)
    const {
  VisitDistinctPairs(EntityToBlocks(), 0, blocks_.size(), visitor);
}

namespace {

// True if the ascending lists a[0, na) and b[0, nb) share an element.
bool Intersects(const uint32_t* a, size_t na, const uint32_t* b, size_t nb) {
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

void BlockCollection::VisitDistinctPairs(
    const std::vector<std::vector<uint32_t>>& entity_blocks, size_t begin,
    size_t end,
    const std::function<void(model::EntityId, model::EntityId)>& visitor)
    const {
  WEBER_DCHECK_LE(end, blocks_.size()) << "block range past the end";
  // before[k]: how many blocks ahead of b hold the k-th id of block b, i.e.
  // the position of b in that id's ascending block list. A pair's least
  // common block is b exactly when those two prefixes share no block.
  std::vector<uint32_t> before;
  for (size_t b = begin; b < end; ++b) {
    const std::vector<model::EntityId>& ids = blocks_[b].entities;
    before.resize(ids.size());
    for (size_t k = 0; k < ids.size(); ++k) {
      WEBER_DCHECK_LT(ids[k], entity_blocks.size())
          << "block entity outside the index";
      const std::vector<uint32_t>& list = entity_blocks[ids[k]];
      auto at = std::lower_bound(list.begin(), list.end(), b);
      WEBER_DCHECK(at != list.end() && *at == b)
          << "index does not list block " << b << " for entity " << ids[k];
      before[k] = static_cast<uint32_t>(at - list.begin());
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const uint32_t* list_i = entity_blocks[ids[i]].data();
      for (size_t j = i + 1; j < ids.size(); ++j) {
        model::EntityId a = ids[i];
        model::EntityId c = ids[j];
        if (collection_ != nullptr && !collection_->Comparable(a, c)) {
          continue;
        }
        if (!Intersects(list_i, before[i], entity_blocks[c].data(),
                        before[j])) {
          visitor(a, c);
        }
      }
    }
  }
}

BlockCollection::PairCounts BlockCollection::CountDistinctPairs(
    const std::function<bool(model::EntityId, model::EntityId)>& accept)
    const {
  std::vector<std::vector<uint32_t>> entity_blocks = EntityToBlocks();
  std::vector<size_t> bounds =
      BalancedRanges(entity_blocks, core::EffectiveParallelism());
  return core::Executor::Shared().ParallelReduce<PairCounts>(
      bounds.size() - 1, PairCounts{},
      [&](size_t r, PairCounts acc) {
        VisitDistinctPairs(entity_blocks, bounds[r], bounds[r + 1],
                           [&acc, &accept](model::EntityId a,
                                           model::EntityId b) {
                             ++acc.pairs;
                             if (accept && accept(a, b)) ++acc.accepted;
                           });
        return acc;
      },
      [](PairCounts x, PairCounts y) {
        return PairCounts{x.pairs + y.pairs, x.accepted + y.accepted};
      });
}

uint64_t BlockCollection::CountDistinctPairs() const {
  return CountDistinctPairs(nullptr).pairs;
}

std::vector<model::IdPair> BlockCollection::DistinctPairList(
    const std::vector<std::vector<uint32_t>>& entity_blocks) const {
  std::vector<model::IdPair> pairs;
  VisitDistinctPairs(entity_blocks, 0, blocks_.size(),
                     [&pairs](model::EntityId a, model::EntityId b) {
                       pairs.push_back(model::IdPair::Of(a, b));
                     });
  return pairs;
}

std::vector<size_t> BlockCollection::BalancedRanges(
    const std::vector<std::vector<uint32_t>>& entity_blocks,
    size_t parts) const {
  parts = std::max<size_t>(parts, 1);
  // The walk's cost of block b: each of its pairs merges the two ids'
  // block-list prefixes ahead of b. prefix[id] is that prefix length (the
  // position VisitDistinctPairs finds with lower_bound), counted here by
  // one scan in block order.
  std::vector<uint32_t> prefix(entity_blocks.size(), 0);
  std::vector<uint64_t> cost(blocks_.size());
  uint64_t total = 0;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    const std::vector<model::EntityId>& ids = blocks_[b].entities;
    uint64_t n = ids.size();
    uint64_t prefixes = 0;
    for (model::EntityId id : ids) {
      WEBER_DCHECK_LT(id, prefix.size()) << "block entity outside the index";
      prefixes += prefix[id]++;
    }
    cost[b] = n * (n - 1) / 2 + (n - 1) * prefixes;
    total += cost[b];
  }
  std::vector<size_t> bounds{0};
  uint64_t running = 0;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    running += cost[b];
    // Close range k once the running cost reaches k/parts of the total.
    if (bounds.size() < parts && running * parts >= total * bounds.size()) {
      bounds.push_back(b + 1);
    }
  }
  if (bounds.back() != blocks_.size()) bounds.push_back(blocks_.size());
  return bounds;
}

std::vector<std::vector<uint32_t>> BlockCollection::EntityToBlocks() const {
  size_t n = collection_ != nullptr ? collection_->size() : 0;
  if (n == 0) {
    for (const Block& block : blocks_) {
      for (model::EntityId id : block.entities) {
        n = std::max<size_t>(n, id + 1);
      }
    }
  }
  std::vector<std::vector<uint32_t>> index(n);
  for (uint32_t b = 0; b < blocks_.size(); ++b) {
    for (model::EntityId id : blocks_[b].entities) {
      WEBER_DCHECK_LT(id, index.size()) << "block entity outside the index";
      index[id].push_back(b);
    }
  }
  return index;
}

int64_t BlockCollection::LargestBlock() const {
  int64_t best = -1;
  size_t best_size = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].size() > best_size) {
      best_size = blocks_[i].size();
      best = static_cast<int64_t>(i);
    }
  }
  return best;
}

void BlockCollection::SortBlocksBySize() {
  std::sort(blocks_.begin(), blocks_.end(),
            [](const Block& x, const Block& y) {
              if (x.entities.size() != y.entities.size()) {
                return x.entities.size() < y.entities.size();
              }
              return x.key < y.key;
            });
}

BlockCollection Blocker::Build(
    const model::EntityCollection& collection) const {
  obs::MetricsRegistry* registry = obs::Current();
  if (registry == nullptr) {
    BlockCollection blocks = BuildBlocks(collection);
    WEBER_DCHECK(blocks.collection() == nullptr ||
                 blocks.collection() == &collection)
        << name() << " returned blocks over a different collection";
    return blocks;
  }

  util::Timer timer;
  BlockCollection blocks = BuildBlocks(collection);
  WEBER_DCHECK(blocks.collection() == nullptr ||
               blocks.collection() == &collection)
      << name() << " returned blocks over a different collection";
  registry->GetHistogram("weber.blocking.build_seconds")
      .Record(timer.ElapsedSeconds());
  registry->GetCounter("weber.blocking.builds").Increment();
  registry->GetCounter("weber.blocking.keys_emitted")
      .Add(blocks.keys_emitted());
  registry->GetCounter("weber.blocking.blocks_built").Add(blocks.NumBlocks());
  registry->GetCounter("weber.blocking.comparisons_suggested")
      .Add(blocks.TotalComparisonsWithRedundancy());
  obs::Histogram& sizes = registry->GetHistogram("weber.blocking.block_size");
  for (const Block& block : blocks.blocks()) {
    sizes.Record(static_cast<double>(block.size()));
  }
  return blocks;
}

}  // namespace weber::blocking
