#ifndef WEBER_BLOCKING_SORTED_NEIGHBORHOOD_H_
#define WEBER_BLOCKING_SORTED_NEIGHBORHOOD_H_

#include <string>
#include <vector>

#include "blocking/block.h"
#include "model/entity.h"

namespace weber::blocking {

/// Produces the sorted order of entity ids under a blocking key.
///
/// The key of a description defaults to the lexicographically smallest of
/// its normalised value tokens concatenated with its second-smallest —
/// a schema-agnostic stand-in for the hand-crafted keys of relational
/// sorted neighbourhood. A custom key attribute can be supplied instead.
struct SortedOrderOptions {
  /// When non-empty, the key is built from this attribute's first value.
  std::string key_attribute;
};

/// Returns entity ids sorted by their blocking key (ties by id). Also
/// exposes the keys themselves (parallel to the returned order) when
/// keys_out != nullptr.
std::vector<model::EntityId> SortedOrder(
    const model::EntityCollection& collection,
    const SortedOrderOptions& options = {},
    std::vector<std::string>* keys_out = nullptr);

/// Sorted-neighbourhood blocking: entities are sorted by blocking key and
/// a window of fixed size w slides over the order; each window position
/// forms one block of w consecutive entities, so entities at distance
/// < w in the sort are candidates.
class SortedNeighborhood : public Blocker {
 public:
  explicit SortedNeighborhood(size_t window, SortedOrderOptions options = {})
      : window_(window), options_(std::move(options)) {}

  BlockCollection BuildBlocks(
      const model::EntityCollection& collection) const override;

  std::string name() const override { return "SortedNeighborhood"; }

 private:
  size_t window_;
  SortedOrderOptions options_;
};

/// Multi-pass sorted neighbourhood: one sliding-window pass per key
/// definition, blocks unioned. The classic remedy for dirty keys — a
/// match missed because one key attribute is corrupted is usually caught
/// by a pass over another attribute.
class MultiPassSortedNeighborhood : public Blocker {
 public:
  MultiPassSortedNeighborhood(size_t window,
                              std::vector<SortedOrderOptions> passes)
      : window_(window), passes_(std::move(passes)) {}

  BlockCollection BuildBlocks(
      const model::EntityCollection& collection) const override;

  std::string name() const override { return "MultiPassSortedNeighborhood"; }

 private:
  size_t window_;
  std::vector<SortedOrderOptions> passes_;
};

}  // namespace weber::blocking

#endif  // WEBER_BLOCKING_SORTED_NEIGHBORHOOD_H_
