#ifndef SGR_GRAPH_CSR_GRAPH_H_
#define SGR_GRAPH_CSR_GRAPH_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace sgr {

/// Non-owning view of a node's neighbor list in a CsrGraph: the read-only
/// slice of std::vector<NodeId> the crawlers and analyzers use.
class NeighborSpan {
 public:
  constexpr NeighborSpan() = default;
  constexpr NeighborSpan(const NodeId* data, std::size_t size)
      : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  const NodeId* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](std::size_t i) const { return data_[i]; }
  NodeId front() const { return data_[0]; }
  NodeId back() const { return data_[size_ - 1]; }

 private:
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Immutable compressed-sparse-row snapshot of a Graph.
///
/// CsrGraph is the one read substrate: Graph holds only an edge array and
/// degrees, so every neighbor read (property analyzers, triangle counting,
/// BFS/Brandes sweeps, and the Monte Carlo restoration trials that crawl
/// the same original graph thousands of times) goes through a snapshot.
/// It packs the multigraph into two flat arrays (offsets + neighbors, the
/// classic CSR layout), with neighbor lists sorted ascending so that
/// edge-multiplicity queries are binary searches and triangle counting is
/// a linear merge.
///
/// The snapshot is deliberately immutable: it can be shared by any number
/// of reader threads without synchronization, which is what the parallel
/// trial runner (exp/parallel.h) relies on.
///
/// Conventions (Section III-A of the paper):
///   * one neighbor entry per incident edge endpoint,
///   * a self-loop at v contributes two entries equal to v,
///   * Degree(v) counts a loop twice, NumEdges() counts it once,
///   * CountEdges(v, v) equals twice the loop count (A_vv).
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds the snapshot from `g`'s edge array in O(n + m). Neighbor lists
  /// come out sorted ascending via a counting sort of the edges (no
  /// comparison sort); the scratch is one NodeId per edge.
  explicit CsrGraph(const Graph& g);

  /// Builds from raw CSR arrays: `offsets` has NumNodes()+1 entries and
  /// `neighbors[offsets[v] .. offsets[v+1])` lists v's neighbors (loop
  /// entries doubled, per the conventions above). Neighbor ranges are
  /// sorted in place if needed. Used to snapshot crawled neighborhoods
  /// that never materialize as a Graph.
  static CsrGraph FromAdjacency(std::vector<std::size_t> offsets,
                                std::vector<NodeId> neighbors);

  std::size_t NumNodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of edges (loops count once, parallel edges separately).
  std::size_t NumEdges() const { return TotalDegree() / 2; }

  /// Degree of `v`; a self-loop contributes 2.
  std::size_t Degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Maximum degree over all nodes (precomputed at build time).
  std::size_t MaxDegree() const { return max_degree_; }

  /// Average degree 2m / n. 0 for an empty graph.
  double AverageDegree() const;

  /// Total degree 2m (loops counted twice).
  std::size_t TotalDegree() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  /// Neighbors of `v`, sorted ascending, one entry per incident edge
  /// endpoint (a loop at `v` appears twice).
  NeighborSpan neighbors(NodeId v) const {
    return NeighborSpan(neighbors_.data() + offsets_[v], Degree(v));
  }

  /// A_uv: edge multiplicity between `u` and `v` (twice the loop count for
  /// u == v): a binary search over the smaller neighbor list,
  /// O(log min(deg u, deg v)).
  std::size_t CountEdges(NodeId u, NodeId v) const;

  /// True if at least one edge joins `u` and `v`.
  bool HasEdge(NodeId u, NodeId v) const { return CountEdges(u, v) > 0; }

  /// True if the snapshot has no multi-edges and no self-loops
  /// (precomputed at build time).
  bool IsSimple() const { return is_simple_; }

  /// Raw CSR arrays, for binary serialization (graph/snapshot_cache.h) and
  /// for scratch laid out like the rows (the Brandes predecessor slots).
  const std::vector<std::size_t>& raw_offsets() const { return offsets_; }
  const std::vector<NodeId>& raw_neighbors() const { return neighbors_; }

 private:
  /// The preprocessing kernel (graph/components.h) compacts a snapshot's
  /// own arrays in place.
  friend CsrGraph PreprocessDataset(CsrGraph g, std::size_t* self_loops,
                                    std::size_t* parallel_edges);

  void FinalizeFromSortedArrays();

  std::vector<std::size_t> offsets_;  ///< size NumNodes() + 1
  std::vector<NodeId> neighbors_;     ///< size 2m, sorted within each node
  std::size_t max_degree_ = 0;
  bool is_simple_ = true;
};

}  // namespace sgr

#endif  // SGR_GRAPH_CSR_GRAPH_H_
