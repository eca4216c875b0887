#ifndef WEBER_METABLOCKING_PRUNING_SCHEMES_H_
#define WEBER_METABLOCKING_PRUNING_SCHEMES_H_

#include <array>
#include <string>
#include <vector>

#include "metablocking/blocking_graph.h"

namespace weber::metablocking {

/// Edge-pruning schemes for meta-blocking (Papadakis et al., TKDE'14).
enum class PruningScheme {
  /// Weighted Edge Pruning: keep edges whose weight is at least the mean
  /// edge weight of the whole graph.
  kWep,
  /// Cardinality Edge Pruning: keep the K globally heaviest edges, with
  /// K = half the total number of block assignments.
  kCep,
  /// Weighted Node Pruning: each node retains its incident edges weighing
  /// at least the node-local mean; an edge survives if either endpoint
  /// retains it (redistribution semantics).
  kWnp,
  /// Cardinality Node Pruning: each node retains its k heaviest incident
  /// edges, k derived from the average number of block assignments per
  /// entity; an edge survives if either endpoint retains it.
  kCnp,
};

/// Returns the canonical short name ("WEP", "CNP", ...).
std::string ToString(PruningScheme scheme);

inline constexpr std::array<PruningScheme, 4> kAllPruningSchemes = {
    PruningScheme::kWep, PruningScheme::kCep, PruningScheme::kWnp,
    PruningScheme::kCnp};

struct PruneOptions {
  /// Node-centric schemes (WNP/CNP) keep an edge retained by *either*
  /// endpoint. The reciprocal variants require *both* endpoints to retain
  /// it, trading recall for precision.
  bool reciprocal = false;
};

/// Meta-blocking: weighs the blocking graph of `blocks` under `weights`,
/// prunes it under `pruning`, and returns the surviving candidate pairs,
/// heaviest first with ties broken by (low, high).
///
/// Node-centric passes over chunks of nodes do the work (see
/// BlockingGraph); no edge list of the whole graph is built. WNP and CNP
/// derive a per-node threshold in a first pass; WEP's global mean comes
/// from one serial VisitEdges walk, which sums the weights in the order a
/// materialised edge list would; CEP merges per-chunk top-K heaps. A final
/// filter pass keeps an edge (v, u > v) that v or u (reciprocal: both)
/// retains, counting the kept edges per chunk before filling one exact-size
/// vector allocated on the calling thread; each chunk sorts its slice and
/// the calling thread merges the sorted slices into the result. The result
/// is identical for any thread count.
///
/// With a metrics registry attached, the call opens a "metablocking" span
/// and publishes its time, node, pair and kept counts and working bytes
/// under `weber.metablocking.*`.
std::vector<model::IdPair> MetaBlock(const blocking::BlockCollection& blocks,
                                     WeightScheme weights,
                                     PruningScheme pruning,
                                     const PruneOptions& options = {});

}  // namespace weber::metablocking

#endif  // WEBER_METABLOCKING_PRUNING_SCHEMES_H_
