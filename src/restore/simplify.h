#ifndef SGR_RESTORE_SIMPLIFY_H_
#define SGR_RESTORE_SIMPLIFY_H_

#include <cstddef>

#include "graph/graph.h"
#include "util/rng.h"

namespace sgr {

/// Statistics of a simplification pass.
struct SimplifyStats {
  std::size_t offending_before = 0;  ///< loops + parallel-edge surplus
  std::size_t offending_after = 0;
  std::size_t swaps = 0;             ///< accepted repair swaps
};

/// Removes self-loops and parallel edges by degree-matched double-edge
/// swaps, preserving the degree vector and the joint degree matrix
/// exactly (the same swap family as Algorithm 6, targeting simplicity
/// instead of clustering).
///
/// The problem definition allows multi-edges and loops, and the paper's
/// generated graphs may contain a few of them; downstream consumers often
/// require simple graphs. Each offending edge is repaired by swapping
/// with a random degree-matched partner when the swap strictly reduces
/// the total offense (loop count + parallel surplus), so the pass never
/// makes the graph less simple. Edge ids below `num_protected_edges`
/// (the sampled subgraph, which is always simple) are never touched.
///
/// Returns the before/after offense counts; `offending_after` can stay
/// positive when the joint degree matrix admits no simple realization in
/// the neighborhood explored (`max_rounds` bounds the work).
SimplifyStats SimplifyByRewiring(Graph& g,
                                 std::size_t num_protected_edges, Rng& rng,
                                 std::size_t max_rounds = 20,
                                 std::size_t attempts_per_edge = 64);

}  // namespace sgr

#endif  // SGR_RESTORE_SIMPLIFY_H_
