#ifndef WEBER_TESTS_PAIR_REFERENCE_H_
#define WEBER_TESTS_PAIR_REFERENCE_H_

#include <vector>

#include "blocking/block.h"
#include "model/ground_truth.h"

namespace weber::testing {

/// Reference distinct-pair walk: every block in order, positions i < j,
/// each comparable pair emitted the first time a set of executed pairs has
/// not seen it. BlockCollection::VisitDistinctPairs must emit exactly this
/// sequence without keeping such a set.
inline std::vector<model::IdPair> HashSetPairSequence(
    const blocking::BlockCollection& blocks) {
  const model::EntityCollection* collection = blocks.collection();
  model::IdPairSet seen;
  std::vector<model::IdPair> sequence;
  for (const blocking::Block& block : blocks.blocks()) {
    for (size_t i = 0; i < block.entities.size(); ++i) {
      for (size_t j = i + 1; j < block.entities.size(); ++j) {
        model::EntityId a = block.entities[i];
        model::EntityId b = block.entities[j];
        if (collection != nullptr && !collection->Comparable(a, b)) continue;
        if (seen.insert(model::IdPair::Of(a, b)).second) {
          sequence.push_back({a, b});
        }
      }
    }
  }
  return sequence;
}

/// The pairs VisitDistinctPairs emits, in order and as (a, b) passed.
inline std::vector<model::IdPair> VisitedPairSequence(
    const blocking::BlockCollection& blocks) {
  std::vector<model::IdPair> sequence;
  blocks.VisitDistinctPairs([&sequence](model::EntityId a, model::EntityId b) {
    sequence.push_back({a, b});
  });
  return sequence;
}

}  // namespace weber::testing

#endif  // WEBER_TESTS_PAIR_REFERENCE_H_
