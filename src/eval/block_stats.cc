#include "eval/block_stats.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace weber::eval {

std::string BlockStats::ToString() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%zu blocks, sizes [%zu..%zu] mean %.1f median %.1f, "
                "%llu comparisons (%.2fx redundancy), largest block %.1f%%",
                num_blocks, min_size, max_size, mean_size, median_size,
                static_cast<unsigned long long>(distinct_comparisons),
                redundancy_factor, 100.0 * largest_block_share);
  return buffer;
}

BlockStats ComputeBlockStats(const blocking::BlockCollection& blocks) {
  BlockStats stats;
  stats.num_blocks = blocks.NumBlocks();
  if (stats.num_blocks == 0) return stats;

  std::vector<size_t> sizes;
  sizes.reserve(stats.num_blocks);
  uint64_t largest_comparisons = 0;
  for (const blocking::Block& block : blocks.blocks()) {
    sizes.push_back(block.size());
    stats.total_assignments += block.size();
    uint64_t comparisons =
        blocks.collection() != nullptr
            ? block.NumComparisons(*blocks.collection())
            : block.size() * (block.size() - 1) / 2;
    largest_comparisons = std::max(largest_comparisons, comparisons);
  }
  std::sort(sizes.begin(), sizes.end());
  stats.min_size = sizes.front();
  stats.max_size = sizes.back();
  stats.mean_size = static_cast<double>(stats.total_assignments) /
                    static_cast<double>(stats.num_blocks);
  size_t mid = sizes.size() / 2;
  stats.median_size = sizes.size() % 2 == 1
                          ? static_cast<double>(sizes[mid])
                          : (static_cast<double>(sizes[mid - 1]) +
                             static_cast<double>(sizes[mid])) /
                                2.0;
  stats.comparisons_with_redundancy =
      blocks.TotalComparisonsWithRedundancy();
  stats.distinct_comparisons = blocks.CountDistinctPairs();
  stats.redundancy_factor =
      stats.distinct_comparisons > 0
          ? static_cast<double>(stats.comparisons_with_redundancy) /
                static_cast<double>(stats.distinct_comparisons)
          : 0.0;
  stats.largest_block_share =
      stats.comparisons_with_redundancy > 0
          ? static_cast<double>(largest_comparisons) /
                static_cast<double>(stats.comparisons_with_redundancy)
          : 0.0;
  return stats;
}

}  // namespace weber::eval
