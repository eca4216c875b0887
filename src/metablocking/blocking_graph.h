#ifndef WEBER_METABLOCKING_BLOCKING_GRAPH_H_
#define WEBER_METABLOCKING_BLOCKING_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "blocking/block.h"
#include "model/ground_truth.h"
#include "util/check.h"

namespace weber::metablocking {

/// Edge-weighting schemes for the blocking graph (Papadakis et al.,
/// TKDE'14). All weights are "higher = more likely to match".
enum class WeightScheme {
  /// Common Blocks Scheme: the number of blocks the pair co-occurs in.
  kCbs,
  /// Enhanced CBS: CBS scaled by log(|B| / |B_x|) for both endpoints,
  /// discounting entities that appear in many blocks.
  kEcbs,
  /// Jaccard Scheme: |common blocks| / |union of the two block lists|.
  kJs,
  /// Enhanced JS: JS scaled by log(|V| / degree(x)) for both endpoints.
  kEjs,
  /// Aggregate Reciprocal Comparisons Scheme: sum over common blocks of
  /// 1 / cardinality(block), favouring pairs that co-occur in small
  /// (discriminative) blocks.
  kArcs,
};

/// Returns the canonical short name of a scheme ("CBS", "EJS", ...).
std::string ToString(WeightScheme scheme);

/// A weighted edge of the blocking graph: one distinct candidate pair,
/// with a < b.
struct WeightedEdge {
  model::EntityId a;
  model::EntityId b;
  double weight;

  model::IdPair pair() const { return model::IdPair::Of(a, b); }
};

/// The total order meta-blocking ranks edges by: heaviest first, ties
/// broken by (a, b). CEP and CNP cut by it, and pruned pairs are returned
/// in it.
inline bool HeavierOrEarlier(const WeightedEdge& x, const WeightedEdge& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// The blocking graph of a block collection: one node per entity, one
/// undirected edge per distinct comparable co-occurring pair (redundant
/// comparisons collapse into a single edge), weighted by the chosen scheme.
///
/// The graph is never materialised. It holds the entity-to-blocks index
/// and the per-block and per-node terms of the weights; a node's edges are
/// gathered on demand from its blocks. This is the entity-based strategy
/// of parallel meta-blocking (Efthymiou et al., Inf. Syst.'17): the nodes
/// are cut into contiguous chunks, each chunk owns a dense scratch, and
/// the chunks' node passes run concurrently on the shared executor.
///
/// First-encounter order: every block holds sorted ids, so the neighbours
/// of v, in the order they are first met while scanning v's blocks
/// ascending and each block's members in order, are exactly v's edges in
/// BlockCollection::VisitDistinctPairs order. A fold over a node's edges
/// in that order (WNP's node mean) is therefore bit-equal to the same fold
/// over a materialised edge list. Common-block terms are summed in
/// ascending block order and every weight is computed with its endpoints
/// in their (low, high) roles, so both endpoints of an edge, and
/// VisitEdges, see the same weight bits.
class BlockingGraph {
 public:
  /// Indexes `blocks`, which must outlive the graph, for weighting under
  /// `scheme`. Cuts the nodes into at most EffectiveParallelism() chunks
  /// and allocates one scratch per chunk here, on the calling thread.
  /// EJS degrees are the neighbour counts of a first parallel node pass.
  BlockingGraph(const blocking::BlockCollection& blocks, WeightScheme scheme);

  size_t num_nodes() const { return entity_blocks_.size(); }
  size_t num_chunks() const { return scratch_.size(); }
  WeightScheme scheme() const { return scheme_; }

  /// Runs pass(chunk, begin, end) for every node chunk [begin, end) on the
  /// shared executor, concurrently across chunks. The chunks are the same
  /// on every call.
  void ForEachChunk(const std::function<void(size_t chunk,
                                             model::EntityId begin,
                                             model::EntityId end)>& pass);

  /// Calls visit(u, weight) for every neighbour u of v, in first-encounter
  /// order, through the scratch of `chunk`; only the pass that runs
  /// `chunk` may use it.
  template <typename Visit>
  void ForEachNeighbour(size_t chunk, model::EntityId v, Visit&& visit);

  /// Visits every edge once, in VisitDistinctPairs order, from one serial
  /// walk that merges the two endpoints' block lists per pair. Folds that
  /// must match a whole-graph edge list bit for bit (WEP's mean) use it.
  void VisitEdges(
      const std::function<void(const WeightedEdge&)>& visitor) const;

  /// Bytes held by the index, the weight terms and the chunk scratch.
  size_t working_bytes() const;

 private:
  // Dense per-chunk gather state: common-block counts and ARCS sums per
  // node, all zero between gathers, and the nodes touched by a gather.
  struct Scratch {
    std::vector<uint32_t> common;
    std::vector<double> arcs;
    std::vector<model::EntityId> touched;
  };

  // Accumulates v's comparable co-occurring neighbours into the chunk's
  // scratch and returns it; the caller resets it with Release().
  Scratch& Gather(size_t chunk, model::EntityId v);
  void Release(Scratch& scratch) const;

  double Weight(model::EntityId low, model::EntityId high,
                uint32_t common_blocks, double arcs_sum) const;

  const blocking::BlockCollection* blocks_;
  WeightScheme scheme_;
  std::vector<std::vector<uint32_t>> entity_blocks_;
  // ARCS: 1 / cardinality per block (0 for a block suggesting nothing).
  std::vector<double> arcs_term_;
  // ECBS: log(|B| / |B_v|); EJS: log(|V| / degree(v)).
  std::vector<double> node_log_;
  size_t chunk_size_ = 1;
  std::vector<Scratch> scratch_;
};

inline BlockingGraph::Scratch& BlockingGraph::Gather(size_t chunk,
                                                     model::EntityId v) {
  WEBER_DCHECK_LT(chunk, scratch_.size()) << "no scratch for chunk";
  WEBER_DCHECK_LT(v, entity_blocks_.size()) << "node outside the graph";
  Scratch& scratch = scratch_[chunk];
  const model::EntityCollection* collection = blocks_->collection();
  const bool arcs = scheme_ == WeightScheme::kArcs;
  for (uint32_t b : entity_blocks_[v]) {
    for (model::EntityId u : blocks_->blocks()[b].entities) {
      if (u == v) continue;
      if (collection != nullptr && !collection->Comparable(u, v)) continue;
      if (scratch.common[u]++ == 0) scratch.touched.push_back(u);
      if (arcs) scratch.arcs[u] += arcs_term_[b];
    }
  }
  return scratch;
}

inline void BlockingGraph::Release(Scratch& scratch) const {
  for (model::EntityId u : scratch.touched) {
    scratch.common[u] = 0;
    if (!scratch.arcs.empty()) scratch.arcs[u] = 0.0;
  }
  scratch.touched.clear();
}

inline double BlockingGraph::Weight(model::EntityId low, model::EntityId high,
                                    uint32_t common_blocks,
                                    double arcs_sum) const {
  switch (scheme_) {
    case WeightScheme::kCbs:
      return common_blocks;
    case WeightScheme::kEcbs:
      return common_blocks * node_log_[low] * node_log_[high];
    case WeightScheme::kJs:
    case WeightScheme::kEjs: {
      double union_size = static_cast<double>(entity_blocks_[low].size() +
                                              entity_blocks_[high].size()) -
                          common_blocks;
      double js = union_size > 0 ? common_blocks / union_size : 0.0;
      if (scheme_ == WeightScheme::kJs) return js;
      return js * node_log_[low] * node_log_[high];
    }
    case WeightScheme::kArcs:
      return arcs_sum;
  }
  return 0.0;
}

template <typename Visit>
void BlockingGraph::ForEachNeighbour(size_t chunk, model::EntityId v,
                                     Visit&& visit) {
  Scratch& scratch = Gather(chunk, v);
  for (model::EntityId u : scratch.touched) {
    visit(u, Weight(std::min(u, v), std::max(u, v), scratch.common[u],
                    scratch.arcs.empty() ? 0.0 : scratch.arcs[u]));
  }
  Release(scratch);
}

}  // namespace weber::metablocking

#endif  // WEBER_METABLOCKING_BLOCKING_GRAPH_H_
