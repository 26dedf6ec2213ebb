#ifndef SGR_GRAPH_GRAPH_H_
#define SGR_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Undirected multigraph with self-loops.
///
/// This is the substrate shared by every component of the library: the
/// original social graph, the subgraph sampled by a random walk, and the
/// graphs produced by the restoration methods. Following the paper's
/// conventions (Section III-A):
///   * multiple edges and self-loops are allowed,
///   * the degree of a node counts a self-loop twice (A_ii equals twice the
///     number of loops),
///   * adjacency lists store one entry per incident edge endpoint, so
///     `adjacency(v).size() == Degree(v)` and a loop at v appears twice in
///     `adjacency(v)`.
///
/// The class supports in-place edge replacement (`ReplaceEdge`), which is the
/// primitive the 2K-preserving rewiring phase (Algorithm 6) builds on.
class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `num_nodes` isolated nodes.
  explicit Graph(std::size_t num_nodes) : adjacency_(num_nodes) {}

  /// Adds one isolated node and returns its id.
  NodeId AddNode();

  /// Adds `count` isolated nodes.
  void AddNodes(std::size_t count);

  /// Adds an undirected edge between `u` and `v` (u == v adds a loop).
  /// Returns the id of the new edge. Endpoints must be existing nodes.
  EdgeId AddEdge(NodeId u, NodeId v);

  /// Replaces the endpoints of edge `e` with (`new_u`, `new_v`), updating
  /// adjacency lists. Degrees of the four affected endpoints change
  /// accordingly; callers that must preserve degrees (rewiring) are
  /// responsible for choosing degree-matched replacements.
  void ReplaceEdge(EdgeId e, NodeId new_u, NodeId new_v);

  /// Number of nodes.
  std::size_t NumNodes() const { return adjacency_.size(); }

  /// Number of edges (loops count once, parallel edges count separately).
  std::size_t NumEdges() const { return edges_.size(); }

  /// Degree of `v`; a self-loop contributes 2.
  std::size_t Degree(NodeId v) const { return adjacency_[v].size(); }

  /// Maximum degree over all nodes (0 for an empty graph).
  std::size_t MaxDegree() const;

  /// Average degree 2m / n (Eq. (1) of the paper). 0 for an empty graph.
  double AverageDegree() const;

  /// Neighbors of `v`, one entry per incident edge endpoint. A loop at `v`
  /// contributes two entries equal to `v`. Order is unspecified.
  const std::vector<NodeId>& adjacency(NodeId v) const {
    return adjacency_[v];
  }

  /// All edges, indexed by EdgeId.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge with id `e`.
  const Edge& edge(EdgeId e) const { return edges_[e]; }

  /// Number of edges between `u` and `v` (A_uv; for u == v this is twice the
  /// number of loops, matching the adjacency-matrix convention). Scans the
  /// smaller adjacency list: O(min(deg u, deg v)).
  std::size_t CountEdges(NodeId u, NodeId v) const;

  /// True if at least one edge joins `u` and `v`.
  bool HasEdge(NodeId u, NodeId v) const { return CountEdges(u, v) > 0; }

  /// True if the graph has no multi-edges and no self-loops.
  bool IsSimple() const;

  /// Total degree (2m, counting loops twice). Useful for invariant checks.
  std::size_t TotalDegree() const;

 private:
  void Attach(NodeId u, NodeId v);
  void Detach(NodeId u, NodeId v);

  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<Edge> edges_;
};

}  // namespace sgr

#endif  // SGR_GRAPH_GRAPH_H_
