#include "metablocking/pruning_schemes.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace weber::metablocking {

std::string ToString(PruningScheme scheme) {
  switch (scheme) {
    case PruningScheme::kWep:
      return "WEP";
    case PruningScheme::kCep:
      return "CEP";
    case PruningScheme::kWnp:
      return "WNP";
    case PruningScheme::kCnp:
      return "CNP";
  }
  return "?";
}

namespace {

uint64_t TotalBlockAssignments(const blocking::BlockCollection& blocks) {
  uint64_t total = 0;
  for (const blocking::Block& block : blocks.blocks()) total += block.size();
  return total;
}

// The outcome of one pruning scheme: the kept edges as runs each sorted
// heaviest first (run r is [runs[r], runs[r+1])), the distinct pairs it
// weighed, and the bytes of its per-node thresholds and heaps.
struct Pruned {
  std::vector<WeightedEdge> kept;
  std::vector<size_t> runs;
  uint64_t distinct_pairs = 0;
  size_t threshold_bytes = 0;
};

// Calls edge(chunk, e) for every edge e of the chunk's nodes, once, at its
// lower endpoint.
template <typename Edge>
void ForEachEdge(BlockingGraph& graph, const Edge& edge) {
  graph.ForEachChunk([&graph, &edge](size_t chunk, model::EntityId begin,
                                     model::EntityId end) {
    for (model::EntityId v = begin; v < end; ++v) {
      graph.ForEachNeighbour(chunk, v, [&](model::EntityId u, double w) {
        if (u > v) edge(chunk, WeightedEdge{v, u, w});
      });
    }
  });
}

// Keeps the edges keep(e) accepts, one sorted run per chunk. One pass
// counts them per chunk; the calling thread allocates the exact-size
// result; a second pass fills each chunk's slice, and a third sorts it in
// place. No output grows on a pool thread.
template <typename Keep>
void KeepEdges(BlockingGraph& graph, const Keep& keep, Pruned& out) {
  out.runs.assign(graph.num_chunks() + 1, 0);
  ForEachEdge(graph, [&](size_t chunk, const WeightedEdge& e) {
    if (keep(e)) ++out.runs[chunk + 1];
  });
  std::partial_sum(out.runs.begin(), out.runs.end(), out.runs.begin());
  out.kept.resize(out.runs.back());
  std::vector<size_t> next(out.runs.begin(), out.runs.end() - 1);
  ForEachEdge(graph, [&](size_t chunk, const WeightedEdge& e) {
    if (keep(e)) out.kept[next[chunk]++] = e;
  });
  graph.ForEachChunk([&out](size_t chunk, model::EntityId, model::EntityId) {
    std::sort(out.kept.begin() + out.runs[chunk],
              out.kept.begin() + out.runs[chunk + 1], HeavierOrEarlier);
  });
}

// Node-centric pruning: an edge survives if either endpoint retains it, or
// both when reciprocal.
template <typename Retains>
void KeepRetained(BlockingGraph& graph, bool reciprocal,
                  const Retains& retains, Pruned& out) {
  KeepEdges(graph, [&retains, reciprocal](const WeightedEdge& e) {
    bool by_a = retains(e.a, e);
    bool by_b = retains(e.b, e);
    return reciprocal ? by_a && by_b : by_a || by_b;
  }, out);
}

// Offers e to a heap holding the best `bound` edges offered so far under
// HeavierOrEarlier, the worst of them on top. The heap never grows past
// `bound` (at least 1), so a caller can reserve it up front.
void OfferBounded(std::vector<WeightedEdge>& heap, size_t bound,
                  const WeightedEdge& e) {
  if (heap.size() < bound) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), HeavierOrEarlier);
  } else if (HeavierOrEarlier(e, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), HeavierOrEarlier);
    heap.back() = e;
    std::push_heap(heap.begin(), heap.end(), HeavierOrEarlier);
  }
}

// The pairs of the sorted runs, merged heaviest first.
std::vector<model::IdPair> MergeRuns(const Pruned& pruned) {
  const std::vector<WeightedEdge>& kept = pruned.kept;
  const std::vector<size_t>& runs = pruned.runs;
  std::vector<model::IdPair> pairs;
  pairs.reserve(kept.size());
  std::vector<size_t> next(runs.begin(), runs.end() - 1);
  // A heap of the non-empty runs, the one whose head ranks first on top.
  auto after = [&kept, &next](size_t x, size_t y) {
    return HeavierOrEarlier(kept[next[y]], kept[next[x]]);
  };
  std::vector<size_t> heap;
  for (size_t r = 0; r + 1 < runs.size(); ++r) {
    if (runs[r] < runs[r + 1]) heap.push_back(r);
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    size_t r = heap.back();
    const WeightedEdge& edge = kept[next[r]];
    pairs.push_back({edge.a, edge.b});
    if (++next[r] < runs[r + 1]) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return pairs;
}

Pruned PruneWep(BlockingGraph& graph) {
  Pruned out;
  double total = 0.0;
  graph.VisitEdges([&](const WeightedEdge& e) {
    total += e.weight;
    ++out.distinct_pairs;
  });
  double mean = out.distinct_pairs == 0
                    ? 0.0
                    : total / static_cast<double>(out.distinct_pairs);
  KeepEdges(
      graph, [mean](const WeightedEdge& e) { return e.weight >= mean; }, out);
  return out;
}

Pruned PruneCep(BlockingGraph& graph, uint64_t budget) {
  Pruned out;
  std::vector<uint64_t> edges(graph.num_chunks(), 0);
  ForEachEdge(graph, [&edges](size_t chunk, const WeightedEdge&) {
    ++edges[chunk];
  });
  // Per-chunk heaps of the budget heaviest edges, worst on top, reserved
  // here so they never grow on a pool thread.
  std::vector<std::vector<WeightedEdge>> heaps(graph.num_chunks());
  for (size_t c = 0; c < heaps.size(); ++c) {
    out.distinct_pairs += edges[c];
    heaps[c].reserve(std::min<uint64_t>(budget, edges[c]));
    out.threshold_bytes += heaps[c].capacity() * sizeof(WeightedEdge);
  }
  ForEachEdge(graph, [&heaps, budget](size_t chunk, const WeightedEdge& e) {
    OfferBounded(heaps[chunk], budget, e);
  });
  size_t merged = 0;
  for (const std::vector<WeightedEdge>& heap : heaps) merged += heap.size();
  out.kept.reserve(merged);
  for (const std::vector<WeightedEdge>& heap : heaps) {
    out.kept.insert(out.kept.end(), heap.begin(), heap.end());
  }
  if (out.kept.size() > budget) {
    std::nth_element(out.kept.begin(), out.kept.begin() + budget,
                     out.kept.end(), HeavierOrEarlier);
    out.kept.resize(budget);
  }
  std::sort(out.kept.begin(), out.kept.end(), HeavierOrEarlier);
  out.runs = {0, out.kept.size()};
  return out;
}

Pruned PruneWnp(BlockingGraph& graph, bool reciprocal) {
  Pruned out;
  // Each node's mean over its edges, summed in first-encounter order.
  std::vector<double> mean(graph.num_nodes(), 0.0);
  std::vector<uint64_t> edges(graph.num_chunks(), 0);
  graph.ForEachChunk([&](size_t chunk, model::EntityId begin,
                         model::EntityId end) {
    for (model::EntityId v = begin; v < end; ++v) {
      double total = 0.0;
      size_t degree = 0;
      graph.ForEachNeighbour(chunk, v, [&](model::EntityId u, double w) {
        total += w;
        ++degree;
        if (u > v) ++edges[chunk];
      });
      if (degree > 0) mean[v] = total / static_cast<double>(degree);
    }
  });
  out.distinct_pairs =
      std::accumulate(edges.begin(), edges.end(), uint64_t{0});
  out.threshold_bytes = mean.capacity() * sizeof(double);
  KeepRetained(
      graph, reciprocal,
      [&mean](model::EntityId node, const WeightedEdge& e) {
        return e.weight >= mean[node];
      },
      out);
  return out;
}

Pruned PruneCnp(BlockingGraph& graph, size_t k, bool reciprocal) {
  Pruned out;
  // Each node's k-th best edge (its last when it has fewer than k): the
  // node retains exactly the edges ranking at or before it.
  std::vector<WeightedEdge> kth(graph.num_nodes());
  std::vector<uint64_t> edges(graph.num_chunks(), 0);
  std::vector<std::vector<WeightedEdge>> heaps(graph.num_chunks());
  for (std::vector<WeightedEdge>& heap : heaps) heap.reserve(k);
  graph.ForEachChunk([&](size_t chunk, model::EntityId begin,
                         model::EntityId end) {
    std::vector<WeightedEdge>& heap = heaps[chunk];
    for (model::EntityId v = begin; v < end; ++v) {
      heap.clear();
      graph.ForEachNeighbour(chunk, v, [&](model::EntityId u, double w) {
        if (u > v) ++edges[chunk];
        OfferBounded(heap, k,
                     u > v ? WeightedEdge{v, u, w} : WeightedEdge{u, v, w});
      });
      if (!heap.empty()) kth[v] = heap.front();
    }
  });
  out.distinct_pairs =
      std::accumulate(edges.begin(), edges.end(), uint64_t{0});
  out.threshold_bytes = kth.capacity() * sizeof(WeightedEdge) +
                        heaps.size() * k * sizeof(WeightedEdge);
  KeepRetained(
      graph, reciprocal,
      [&kth](model::EntityId node, const WeightedEdge& e) {
        return !HeavierOrEarlier(kth[node], e);
      },
      out);
  return out;
}

}  // namespace

std::vector<model::IdPair> MetaBlock(const blocking::BlockCollection& blocks,
                                     WeightScheme weights,
                                     PruningScheme pruning,
                                     const PruneOptions& options) {
  obs::MetricsRegistry* registry = obs::Current();
  obs::Span span(registry, "metablocking");
  util::Timer timer;
  BlockingGraph graph(blocks, weights);
  Pruned pruned;
  switch (pruning) {
    case PruningScheme::kWep:
      pruned = PruneWep(graph);
      break;
    case PruningScheme::kCep:
      pruned = PruneCep(
          graph, std::max<uint64_t>(TotalBlockAssignments(blocks) / 2, 1));
      break;
    case PruningScheme::kWnp:
      pruned = PruneWnp(graph, options.reciprocal);
      break;
    case PruningScheme::kCnp: {
      uint64_t assignments = TotalBlockAssignments(blocks);
      size_t nodes = std::max<size_t>(graph.num_nodes(), 1);
      size_t k = static_cast<size_t>(std::max<uint64_t>(
          1, static_cast<uint64_t>(std::llround(
                 static_cast<double>(assignments) / nodes))));
      pruned = PruneCnp(graph, k, options.reciprocal);
      break;
    }
  }
  const std::vector<WeightedEdge>& kept = pruned.kept;
  std::vector<model::IdPair> pairs = MergeRuns(pruned);

  if (registry != nullptr) {
    registry->GetCounter("weber.metablocking.graph_nodes")
        .Add(graph.num_nodes());
    registry->GetCounter("weber.metablocking.graph_edges")
        .Add(pruned.distinct_pairs);
    registry->GetCounter("weber.metablocking.kept_edges").Add(kept.size());
    registry->GetCounter("weber.metablocking.pruned_edges")
        .Add(pruned.distinct_pairs - kept.size());
    if (pruned.distinct_pairs > 0) {
      registry->GetGauge("weber.metablocking.pruning_ratio")
          .Set(1.0 - static_cast<double>(kept.size()) /
                         static_cast<double>(pruned.distinct_pairs));
    }
    registry->GetGauge("weber.metablocking.working_bytes")
        .Set(static_cast<double>(
            graph.working_bytes() + pruned.threshold_bytes +
            kept.capacity() * sizeof(WeightedEdge) +
            pairs.capacity() * sizeof(model::IdPair)));
    registry->GetHistogram("weber.metablocking.seconds")
        .Record(timer.ElapsedSeconds());
  }
  return pairs;
}

}  // namespace weber::metablocking
