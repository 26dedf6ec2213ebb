#ifndef SGR_SAMPLING_SUBGRAPH_H_
#define SGR_SAMPLING_SUBGRAPH_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "sampling/sampling_list.h"

namespace sgr {

/// The subgraph G' = (V', E') induced from the union of queried neighbor
/// lists (Section III-D).
///
/// V' is the disjoint union of the queried nodes V'qry and the visible nodes
/// V'vis (neighbors of queried nodes that were never queried themselves).
/// E' contains every edge incident to a queried node, exactly once. Node
/// ids are the sampling list's compact ids: the queried nodes take
/// [0, NumQueried()) in ascending original id, then the visible nodes in
/// order of first appearance. The mapping back to original-graph ids is
/// kept for tests and the experiment harness.
struct Subgraph {
  /// G' with dense node ids [0, NumNodes()).
  Graph graph;

  /// Subgraph id -> original-graph id.
  std::vector<NodeId> to_original;

  /// Number of queried nodes |V'qry|.
  std::size_t num_queried = 0;

  /// Whether subgraph node v is in V'qry.
  bool IsQueried(NodeId v) const { return v < num_queried; }

  std::size_t NumQueried() const { return num_queried; }

  /// Number of visible nodes |V'vis|.
  std::size_t NumVisible() const { return graph.NumNodes() - NumQueried(); }
};

/// Builds G' from a sampling list. Lemma 1 of the paper holds on the result:
/// queried nodes have their true degree, visible nodes a lower bound.
Subgraph BuildSubgraph(const SamplingList& list);

}  // namespace sgr

#endif  // SGR_SAMPLING_SUBGRAPH_H_
