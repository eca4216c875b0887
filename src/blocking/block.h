#ifndef WEBER_BLOCKING_BLOCK_H_
#define WEBER_BLOCKING_BLOCK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/entity.h"
#include "model/ground_truth.h"

namespace weber::blocking {

/// A block: the set of entity ids that share a blocking key. Entities are
/// kept sorted and distinct.
struct Block {
  std::string key;
  std::vector<model::EntityId> entities;

  size_t size() const { return entities.size(); }

  /// Number of comparisons this block suggests on its own, honouring the
  /// collection's setting: all pairs for dirty ER, cross-source pairs for
  /// clean-clean.
  uint64_t NumComparisons(const model::EntityCollection& collection) const;
};

/// A blocking collection: the output of a blocking method over one entity
/// collection. Keeps a non-owning pointer to the collection so that
/// downstream consumers (meta-blocking, evaluation) can honour the ER
/// setting.
class BlockCollection {
 public:
  BlockCollection() = default;
  explicit BlockCollection(const model::EntityCollection* collection)
      : collection_(collection) {}

  /// Appends a block. Entities are sorted and deduplicated; blocks that
  /// suggest no comparison under the collection's setting are dropped.
  void AddBlock(Block block);

  const std::vector<Block>& blocks() const { return blocks_; }
  std::vector<Block>& mutable_blocks() { return blocks_; }
  size_t NumBlocks() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  /// Number of AddBlock calls, including blocks dropped as too small or
  /// suggesting no comparison: the raw key count the builder emitted.
  uint64_t keys_emitted() const { return keys_emitted_; }

  const model::EntityCollection* collection() const { return collection_; }

  /// Aggregate comparisons over all blocks, counting a pair once per block
  /// it co-occurs in (i.e., including redundancy). This is the cost a
  /// naive executor would pay.
  uint64_t TotalComparisonsWithRedundancy() const;

  /// The distinct candidate pairs suggested by the collection (each pair
  /// once, no matter how many blocks it co-occurs in).
  model::IdPairSet DistinctPairs() const;

  /// Visits every distinct comparable pair exactly once, by comparison
  /// propagation: a pair (a, b) is visited only in its least common block,
  /// the first block (in block order) that holds both ids. The test reads
  /// only the entity-to-blocks index, so no set of executed pairs is kept.
  /// Pairs arrive in first-occurrence order: block order, then positions
  /// i < j within the block, with a = entities[i] and b = entities[j].
  /// Relies on every block's ids being sorted and distinct, which AddBlock
  /// guarantees (callers of mutable_blocks() must keep it so).
  void VisitDistinctPairs(
      const std::function<void(model::EntityId, model::EntityId)>& visitor)
      const;

  /// The same walk over the blocks [begin, end) only, against an index
  /// built once by EntityToBlocks(): visits the distinct pairs whose least
  /// common block lies in the range. Disjoint ranges visit disjoint pairs,
  /// so ranges may be walked concurrently over one shared index.
  void VisitDistinctPairs(
      const std::vector<std::vector<uint32_t>>& entity_blocks, size_t begin,
      size_t end,
      const std::function<void(model::EntityId, model::EntityId)>& visitor)
      const;

  /// Counts from one distinct-pair walk: every distinct comparable pair,
  /// and those among them that a predicate accepted.
  struct PairCounts {
    uint64_t pairs = 0;
    uint64_t accepted = 0;
  };

  /// Counts the distinct comparable pairs and, when `accept` is set, those
  /// for which it holds, without materialising them. BalancedRanges() are
  /// walked on the shared executor against one index; integer sums do not
  /// depend on how the ranges were cut, so the counts are identical for any
  /// thread count. `accept` is called concurrently and must be thread-safe.
  PairCounts CountDistinctPairs(
      const std::function<bool(model::EntityId, model::EntityId)>& accept)
      const;

  /// Number of distinct comparable pairs: CountDistinctPairs(nullptr).pairs.
  uint64_t CountDistinctPairs() const;

  /// The distinct pairs in VisitDistinctPairs order, normalised with
  /// IdPair::Of, from one serial walk. `entity_blocks` must be this
  /// collection's EntityToBlocks().
  std::vector<model::IdPair> DistinctPairList(
      const std::vector<std::vector<uint32_t>>& entity_blocks) const;

  /// Cuts [0, NumBlocks()) into at most `parts` contiguous, non-empty block
  /// ranges of roughly equal distinct-pair walk cost; `entity_blocks` must
  /// be this collection's EntityToBlocks(). A block costs its pairs plus,
  /// per pair, the two block-list prefixes the walk merges: pair counts
  /// grow quadratically with block size, and later blocks' ids have longer
  /// prefixes, so neither equal block counts nor equal comparison counts
  /// would balance. Returns the boundaries: range r is
  /// [bounds[r], bounds[r+1]).
  std::vector<size_t> BalancedRanges(
      const std::vector<std::vector<uint32_t>>& entity_blocks,
      size_t parts) const;

  /// Builds the inverted index from entity id to the (ascending) list of
  /// block indices that contain it.
  std::vector<std::vector<uint32_t>> EntityToBlocks() const;

  /// Index of the largest block, or -1 if empty.
  int64_t LargestBlock() const;

  /// Sorts blocks by ascending cardinality (comparison count); useful
  /// before purging and for progressive block processing.
  void SortBlocksBySize();

 private:
  // Comparisons one block suggests; all pairs when no collection is set.
  uint64_t ComparisonsOf(const Block& block) const;

  std::vector<Block> blocks_;
  uint64_t keys_emitted_ = 0;
  const model::EntityCollection* collection_ = nullptr;
};

/// Interface implemented by every blocking method.
class Blocker {
 public:
  virtual ~Blocker() = default;

  /// Builds the blocking collection for the given entities. When a
  /// metrics registry is attached (obs::ScopedRegistry) the build reports
  /// its duration, keys emitted, blocks built, suggested comparisons and
  /// block-size distribution under `weber.blocking.*`; nested builders
  /// (multi-pass, multidimensional) report their inner builds too.
  BlockCollection Build(const model::EntityCollection& collection) const;

  /// Human-readable name for reports.
  virtual std::string name() const = 0;

 protected:
  /// The actual blocking method, implemented by each subclass.
  virtual BlockCollection BuildBlocks(
      const model::EntityCollection& collection) const = 0;
};

}  // namespace weber::blocking

#endif  // WEBER_BLOCKING_BLOCK_H_
