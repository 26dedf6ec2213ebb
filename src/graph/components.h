#ifndef SGR_GRAPH_COMPONENTS_H_
#define SGR_GRAPH_COMPONENTS_H_

#include <cstddef>
#include <vector>

#include "graph/csr_graph.h"

namespace sgr {

/// Result of a connected-components decomposition.
struct ComponentsResult {
  /// component_of[v] is the 0-based component index of node v.
  std::vector<std::size_t> component_of;
  /// sizes[c] is the number of nodes in component c.
  std::vector<std::size_t> sizes;
  /// Index into `sizes` of the largest component (0 if the graph is empty).
  std::size_t largest = 0;
};

/// Computes connected components via BFS over the (multi)graph, starting
/// from every unvisited node in ascending order. Components are numbered
/// in order of their smallest node.
ComponentsResult ConnectedComponents(const CsrGraph& g);

/// Number of connected components.
std::size_t CountComponents(const CsrGraph& g);

/// True if the graph is connected (and non-empty).
bool IsConnected(const CsrGraph& g);

/// Applies the paper's dataset preprocessing (Section V-A) to a CSR
/// snapshot that may hold loops and parallel edges: drops loops,
/// collapses parallel edges by a run-length scan of the sorted ranges,
/// and keeps the largest connected component (ties go to the component
/// with the smallest node), relabelled monotonically so ascending old ids
/// map to ascending new ids. The argument is compacted in place, without a
/// second copy of its arrays. `self_loops` and
/// `parallel_edges` (optional) receive how many loops and parallel edge
/// copies the whole graph held, including those outside the kept
/// component.
CsrGraph PreprocessDataset(CsrGraph g, std::size_t* self_loops = nullptr,
                           std::size_t* parallel_edges = nullptr);

}  // namespace sgr

#endif  // SGR_GRAPH_COMPONENTS_H_
