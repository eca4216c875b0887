#include "eval/blocking_metrics.h"

#include <vector>

namespace weber::eval {

double BlockingQuality::PairCompleteness() const {
  if (total_matches == 0) return 1.0;
  return static_cast<double>(matches_covered) /
         static_cast<double>(total_matches);
}

double BlockingQuality::PairQuality() const {
  if (comparisons == 0) return 0.0;
  return static_cast<double>(matches_covered) /
         static_cast<double>(comparisons);
}

double BlockingQuality::ReductionRatio() const {
  if (total_possible_comparisons == 0) return 0.0;
  double ratio = static_cast<double>(comparisons) /
                 static_cast<double>(total_possible_comparisons);
  return 1.0 - ratio;
}

double BlockingQuality::FMeasure() const {
  double pc = PairCompleteness();
  double rr = ReductionRatio();
  if (pc + rr <= 0.0) return 0.0;
  return 2.0 * pc * rr / (pc + rr);
}

BlockingQuality EvaluateBlocks(const blocking::BlockCollection& blocks,
                               const model::GroundTruth& truth) {
  BlockingQuality quality;
  // Also builds the truth's lazy closure before the concurrent IsMatch.
  quality.total_matches = truth.NumMatches();
  quality.comparisons_with_redundancy =
      blocks.TotalComparisonsWithRedundancy();
  if (blocks.collection() != nullptr) {
    quality.total_possible_comparisons =
        blocks.collection()->TotalComparisons();
  }
  blocking::BlockCollection::PairCounts counts = blocks.CountDistinctPairs(
      [&truth](model::EntityId a, model::EntityId b) {
        return truth.IsMatch(a, b);
      });
  quality.comparisons = counts.pairs;
  quality.matches_covered = counts.accepted;
  return quality;
}

BlockingQuality EvaluatePairs(const std::vector<model::IdPair>& pairs,
                              const model::GroundTruth& truth,
                              const model::EntityCollection& collection) {
  BlockingQuality quality;
  quality.total_matches = truth.NumMatches();
  quality.total_possible_comparisons = collection.TotalComparisons();
  model::IdPairSet seen;
  for (const model::IdPair& pair : pairs) {
    if (!seen.insert(pair).second) continue;
    ++quality.comparisons;
    if (truth.IsMatch(pair)) ++quality.matches_covered;
  }
  quality.comparisons_with_redundancy = pairs.size();
  return quality;
}

}  // namespace weber::eval
