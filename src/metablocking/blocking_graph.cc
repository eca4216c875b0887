#include "metablocking/blocking_graph.h"

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

BlockingGraph::BlockingGraph(const blocking::BlockCollection& blocks,
                             WeightScheme scheme)
    : blocks_(&blocks),
      scheme_(scheme),
      entity_blocks_(blocks.EntityToBlocks()) {
  if (WEBER_DCHECK_IS_ON()) {
    // Gathers and the VisitEdges merge sum common blocks in list order: an
    // unsorted block list would break first-encounter order and the merge.
    for (size_t i = 0; i < entity_blocks_.size(); ++i) {
      WEBER_DCHECK_SORTED(entity_blocks_[i].begin(), entity_blocks_[i].end())
          << "entity " << i << " has an unsorted block list";
    }
  }
  const size_t n = num_nodes();
  if (scheme == WeightScheme::kArcs) {
    arcs_term_.resize(blocks.NumBlocks());
    for (size_t b = 0; b < blocks.NumBlocks(); ++b) {
      const blocking::Block& block = blocks.blocks()[b];
      uint64_t cardinality = blocks.collection() != nullptr
                                 ? block.NumComparisons(*blocks.collection())
                                 : block.size() * (block.size() - 1) / 2;
      arcs_term_[b] =
          cardinality > 0 ? 1.0 / static_cast<double>(cardinality) : 0.0;
    }
  }

  size_t parallelism = core::EffectiveParallelism();
  chunk_size_ = std::max<size_t>((n + parallelism - 1) / parallelism, 1);
  scratch_.resize(std::max<size_t>((n + chunk_size_ - 1) / chunk_size_, 1));
  for (Scratch& scratch : scratch_) {
    scratch.common.assign(n, 0);
    if (scheme == WeightScheme::kArcs) scratch.arcs.assign(n, 0.0);
    scratch.touched.reserve(n);
  }

  if (scheme == WeightScheme::kEcbs) {
    double num_blocks = std::max<double>(blocks.NumBlocks(), 1.0);
    node_log_.resize(n);
    for (size_t v = 0; v < n; ++v) {
      node_log_[v] = std::log(
          num_blocks / static_cast<double>(entity_blocks_[v].size()));
    }
  } else if (scheme == WeightScheme::kEjs) {
    // Degrees land in fixed slots, so they do not depend on the chunking.
    node_log_.resize(n);
    ForEachChunk([this](size_t chunk, model::EntityId begin,
                        model::EntityId end) {
      for (model::EntityId v = begin; v < end; ++v) {
        Scratch& scratch = Gather(chunk, v);
        node_log_[v] = static_cast<double>(
            std::max<size_t>(scratch.touched.size(), 1));
        Release(scratch);
      }
    });
    double num_nodes = std::max<double>(n, 1.0);
    for (double& degree : node_log_) degree = std::log(num_nodes / degree);
  }
}

void BlockingGraph::ForEachChunk(
    const std::function<void(size_t, model::EntityId, model::EntityId)>&
        pass) {
  // One ParallelFor index per chunk, so the pass publishes its chunk
  // balance like every other parallel region.
  core::Executor::Shared().ParallelFor(num_chunks(), [&](size_t chunk) {
    size_t begin = std::min(chunk * chunk_size_, num_nodes());
    size_t end = std::min(begin + chunk_size_, num_nodes());
    pass(chunk, static_cast<model::EntityId>(begin),
         static_cast<model::EntityId>(end));
  });
}

void BlockingGraph::VisitEdges(
    const std::function<void(const WeightedEdge&)>& visitor) const {
  blocks_->VisitDistinctPairs(
      entity_blocks_, 0, blocks_->NumBlocks(),
      [this, &visitor](model::EntityId x, model::EntityId y) {
        model::IdPair pair = model::IdPair::Of(x, y);
        const std::vector<uint32_t>& list_a = entity_blocks_[pair.low];
        const std::vector<uint32_t>& list_b = entity_blocks_[pair.high];
        uint32_t common_blocks = 0;
        double arcs_sum = 0.0;
        size_t i = 0;
        size_t j = 0;
        while (i < list_a.size() && j < list_b.size()) {
          if (list_a[i] == list_b[j]) {
            ++common_blocks;
            if (!arcs_term_.empty()) arcs_sum += arcs_term_[list_a[i]];
            ++i;
            ++j;
          } else if (list_a[i] < list_b[j]) {
            ++i;
          } else {
            ++j;
          }
        }
        visitor({pair.low, pair.high,
                 Weight(pair.low, pair.high, common_blocks, arcs_sum)});
      });
}

size_t BlockingGraph::working_bytes() const {
  size_t bytes = entity_blocks_.capacity() * sizeof(entity_blocks_[0]) +
                 arcs_term_.capacity() * sizeof(double) +
                 node_log_.capacity() * sizeof(double);
  for (const std::vector<uint32_t>& list : entity_blocks_) {
    bytes += list.capacity() * sizeof(uint32_t);
  }
  for (const Scratch& scratch : scratch_) {
    bytes += scratch.common.capacity() * sizeof(uint32_t) +
             scratch.arcs.capacity() * sizeof(double) +
             scratch.touched.capacity() * sizeof(model::EntityId);
  }
  return bytes;
}

}  // namespace weber::metablocking
