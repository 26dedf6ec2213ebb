#ifndef SGR_GRAPH_COMPONENTS_H_
#define SGR_GRAPH_COMPONENTS_H_

#include <cstddef>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

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

/// Computes connected components via BFS over the (multi)graph. Components
/// are numbered in order of their smallest node, so both overloads give
/// the same result for a graph and its snapshot. The CsrGraph overload
/// reads through a NeighborCursor (compressed snapshots work too).
ComponentsResult ConnectedComponents(const Graph& g);
ComponentsResult ConnectedComponents(const CsrGraph& g);

/// Number of connected components.
std::size_t CountComponents(const Graph& g);

/// True if the graph is connected (and non-empty).
bool IsConnected(const Graph& g);

/// Extracts the largest connected component as a new graph with densely
/// renumbered nodes. `old_to_new` (optional) receives the node mapping;
/// nodes outside the LCC map to `kNotInLcc`.
inline constexpr NodeId kNotInLcc = static_cast<NodeId>(-1);
Graph LargestConnectedComponent(const Graph& g,
                                std::vector<NodeId>* old_to_new = nullptr);

/// Applies the paper's dataset preprocessing (Section V-A): collapse
/// multi-edges, drop loops, then keep the largest connected component.
Graph PreprocessDataset(const Graph& g);

}  // namespace sgr

#endif  // SGR_GRAPH_COMPONENTS_H_
