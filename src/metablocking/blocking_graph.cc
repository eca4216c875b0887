#include "metablocking/blocking_graph.h"

#include <algorithm>
#include <cmath>

#include "core/executor.h"
#include "util/check.h"

namespace weber::metablocking {

std::string ToString(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kCbs:
      return "CBS";
    case WeightScheme::kEcbs:
      return "ECBS";
    case WeightScheme::kJs:
      return "JS";
    case WeightScheme::kEjs:
      return "EJS";
    case WeightScheme::kArcs:
      return "ARCS";
  }
  return "?";
}

namespace {

// Statistics of one pair's block lists gathered by a single merge scan.
struct PairBlockStats {
  uint32_t common_blocks = 0;
  double arcs_sum = 0.0;
};

PairBlockStats ScanCommonBlocks(const std::vector<uint32_t>& list_a,
                                const std::vector<uint32_t>& list_b,
                                const std::vector<uint64_t>& cardinality) {
  PairBlockStats stats;
  size_t i = 0;
  size_t j = 0;
  while (i < list_a.size() && j < list_b.size()) {
    if (list_a[i] == list_b[j]) {
      ++stats.common_blocks;
      uint64_t card = cardinality[list_a[i]];
      if (card > 0) stats.arcs_sum += 1.0 / static_cast<double>(card);
      ++i;
      ++j;
    } else if (list_a[i] < list_b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return stats;
}

}  // namespace

BlockingGraph BlockingGraph::Build(const blocking::BlockCollection& blocks,
                                   WeightScheme scheme) {
  BlockingGraph graph;
  graph.scheme_ = scheme;

  std::vector<std::vector<uint32_t>> entity_blocks = blocks.EntityToBlocks();
  graph.num_nodes_ = entity_blocks.size();
  if (WEBER_DCHECK_IS_ON()) {
    // ScanCommonBlocks is a linear merge: it silently undercounts common
    // blocks if any entity's block list is not ascending.
    for (size_t i = 0; i < entity_blocks.size(); ++i) {
      WEBER_DCHECK_SORTED(entity_blocks[i].begin(), entity_blocks[i].end())
          << "entity " << i << " has an unsorted block list";
    }
  }

  std::vector<uint64_t> cardinality(blocks.NumBlocks());
  for (uint32_t b = 0; b < blocks.NumBlocks(); ++b) {
    const blocking::Block& block = blocks.blocks()[b];
    cardinality[b] = blocks.collection() != nullptr
                         ? block.NumComparisons(*blocks.collection())
                         : block.size() * (block.size() - 1) / 2;
  }

  // First pass: the distinct pairs. Needed up front for EJS degrees.
  std::vector<model::IdPair> pairs = blocks.DistinctPairList(entity_blocks);

  std::vector<uint32_t> degree;
  if (scheme == WeightScheme::kEjs) {
    degree.assign(graph.num_nodes_, 0);
    for (const model::IdPair& pair : pairs) {
      ++degree[pair.low];
      ++degree[pair.high];
    }
  }

  double num_blocks = std::max<double>(blocks.NumBlocks(), 1.0);
  double num_nodes = std::max<double>(graph.num_nodes_, 1.0);
  // Each edge's weight depends only on the two endpoints' (read-only)
  // block lists, so the pairs parallelize into fixed slots: the edge list
  // is bit-equal to the serial scan for any thread count.
  graph.edges_.resize(pairs.size());
  core::Executor::Shared().ParallelFor(pairs.size(), [&](size_t e) {
    const model::IdPair& pair = pairs[e];
    WEBER_DCHECK_LT(pair.low, pair.high)
        << "blocking graph edge is a self-loop or unnormalised pair";
    WEBER_DCHECK_LT(pair.high, entity_blocks.size())
        << "edge endpoint outside the node range";
    PairBlockStats stats = ScanCommonBlocks(
        entity_blocks[pair.low], entity_blocks[pair.high], cardinality);
    double weight = 0.0;
    switch (scheme) {
      case WeightScheme::kCbs:
        weight = stats.common_blocks;
        break;
      case WeightScheme::kEcbs: {
        double blocks_a = static_cast<double>(entity_blocks[pair.low].size());
        double blocks_b =
            static_cast<double>(entity_blocks[pair.high].size());
        weight = stats.common_blocks * std::log(num_blocks / blocks_a) *
                 std::log(num_blocks / blocks_b);
        break;
      }
      case WeightScheme::kJs: {
        double union_size =
            static_cast<double>(entity_blocks[pair.low].size() +
                                entity_blocks[pair.high].size()) -
            stats.common_blocks;
        weight = union_size > 0 ? stats.common_blocks / union_size : 0.0;
        break;
      }
      case WeightScheme::kEjs: {
        double union_size =
            static_cast<double>(entity_blocks[pair.low].size() +
                                entity_blocks[pair.high].size()) -
            stats.common_blocks;
        double js = union_size > 0 ? stats.common_blocks / union_size : 0.0;
        double deg_a = std::max<uint32_t>(degree[pair.low], 1);
        double deg_b = std::max<uint32_t>(degree[pair.high], 1);
        weight =
            js * std::log(num_nodes / deg_a) * std::log(num_nodes / deg_b);
        break;
      }
      case WeightScheme::kArcs:
        weight = stats.arcs_sum;
        break;
    }
    graph.edges_[e] = {pair.low, pair.high, weight};
  });
  return graph;
}

double BlockingGraph::MeanWeight() const {
  if (edges_.empty()) return 0.0;
  double total = 0.0;
  for (const WeightedEdge& edge : edges_) total += edge.weight;
  return total / static_cast<double>(edges_.size());
}

std::vector<std::vector<uint32_t>> BlockingGraph::NodeEdges() const {
  std::vector<std::vector<uint32_t>> index(num_nodes_);
  for (uint32_t e = 0; e < edges_.size(); ++e) {
    WEBER_DCHECK_LT(edges_[e].b, index.size())
        << "edge " << e << " names a node the graph does not have";
    index[edges_[e].a].push_back(e);
    index[edges_[e].b].push_back(e);
  }
  return index;
}

}  // namespace weber::metablocking
