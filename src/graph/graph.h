#ifndef SGR_GRAPH_GRAPH_H_
#define SGR_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgr {

/// Node identifier. Nodes are dense integers [0, NumNodes()).
using NodeId = std::uint32_t;

/// Edge identifier: index into Graph::edges().
using EdgeId = std::size_t;

/// An undirected edge. Endpoints are stored as given; (u, v) and (v, u)
/// denote the same edge. u == v denotes a self-loop.
struct Edge {
  NodeId u;
  NodeId v;
};

/// Undirected multigraph with self-loops, held as a write-only edge list.
///
/// Graph is the write substrate: the generators, the sampled subgraph,
/// the 2K assembly (Algorithm 5) and the rewiring phase (Algorithm 6)
/// append and swap edges here, and every neighbor read goes through a
/// CsrGraph snapshot. Following the paper's conventions
/// (Section III-A):
///   * multiple edges and self-loops are allowed,
///   * the degree of a node counts a self-loop twice (A_ii equals twice the
///     number of loops).
///
/// The class keeps the EdgeId-indexed edge array and one degree count per
/// node, so `AddEdge` and `ReplaceEdge` are O(1). `ReplaceEdge` is the
/// primitive the 2K-preserving rewiring phase builds on.
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `num_nodes` isolated nodes.
  explicit Graph(std::size_t num_nodes) : degree_(num_nodes, 0) {}

  /// Adds one isolated node and returns its id.
  NodeId AddNode();

  /// Adds `count` isolated nodes.
  void AddNodes(std::size_t count);

  /// Adds an undirected edge between `u` and `v` (u == v adds a loop).
  /// Returns the id of the new edge. Endpoints must be existing nodes.
  EdgeId AddEdge(NodeId u, NodeId v);

  /// Replaces the endpoints of edge `e` with (`new_u`, `new_v`). Degrees of
  /// the four affected endpoints change accordingly; callers that must
  /// preserve degrees (rewiring) are responsible for choosing
  /// degree-matched replacements.
  void ReplaceEdge(EdgeId e, NodeId new_u, NodeId new_v);

  /// Number of nodes.
  std::size_t NumNodes() const { return degree_.size(); }

  /// Number of edges (loops count once, parallel edges count separately).
  std::size_t NumEdges() const { return edges_.size(); }

  /// Degree of `v`; a self-loop contributes 2.
  std::size_t Degree(NodeId v) const { return degree_[v]; }

  /// Maximum degree over all nodes (0 for an empty graph).
  std::size_t MaxDegree() const;

  /// Average degree 2m / n (Eq. (1) of the paper). 0 for an empty graph.
  double AverageDegree() const;

  /// Total degree (2m, counting loops twice).
  std::size_t TotalDegree() const { return 2 * edges_.size(); }

  /// All edges, indexed by EdgeId.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge with id `e`.
  const Edge& edge(EdgeId e) const { return edges_[e]; }

 private:
  std::vector<std::size_t> degree_;
  std::vector<Edge> edges_;
};

}  // namespace sgr

#endif  // SGR_GRAPH_GRAPH_H_
