#ifndef SGR_ANALYSIS_PROPERTY_TRACKER_H_
#define SGR_ANALYSIS_PROPERTY_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/properties.h"
#include "dk/triangle_tracker.h"
#include "graph/graph.h"

namespace sgr {

/// Analyzer mode of a PropertyTracker, mirroring libfirm ext_grs' split
/// between on-demand analysis (ext_grs_analyze) and incremental analysis
/// (ext_grs_enable_incr_ana): the from-scratch mode recomputes every
/// property from a materialized graph on each request, the incremental
/// mode maintains counters under swap deltas and materializes them.
enum class PropertyAnalysisMode {
  kFromScratch,
  kIncremental,
};

/// Incremental maintenance of the swap-sensitive local properties of
/// GraphProperties under degree-preserving 2-swaps.
///
/// The rewiring phase (Algorithm 6) performs up to millions of committed
/// swaps; re-running the from-scratch analyzers per convergence sample is
/// an O(n + m · k̄) pass each. This tracker generalizes the TriangleTracker
/// idea to the full set of local properties the swaps can move:
///   * k̄nn(k) — per-node neighbor-degree sums S_v (int64), aggregated per
///     degree class at snapshot time,
///   * c̄ and c̄(k) — per-node triangle counts via a composed
///     TriangleTracker,
///   * P(s) — the edgewise shared-partner distribution, maintained as a
///     per-adjacent-pair shared count plus a multiplicity-weighted
///     histogram, updated along the four touched edges of each swap,
///   * connected-component count and LCC size — explicit component labels
///     with a bounded BFS rebuild on edge removal.
/// Everything degree-derived (n, k̄, P(k), degree classes) is frozen at
/// construction: the only supported mutation is the degree-preserving
/// ApplySwap, which cannot change any degree.
///
/// Snapshot() materializes the tracked state into a GraphProperties whose
/// local fields (1)-(7) are bit-identical to ComputeProperties on the
/// same graph (the per-node floating-point summation shapes of the
/// from-scratch analyzers are replicated exactly); the global fields
/// (8)-(12) are left at their defaults — they are not swap-local and
/// remain the from-scratch analyzers' job.
///
/// Like TriangleTracker, the tracker owns its state and never aliases the
/// Graph it was built from: callers must mirror every committed swap (and
/// only committed swaps — never rejected trials) to stay in sync.
/// All mutation and snapshot paths are deterministic: iteration is over
/// node indices and dense vectors, never over unordered containers.
class PropertyTracker {
 public:
  /// Builds the tracker from `g`. O(n + m·k̄) for the initial
  /// shared-partner pass — the same cost as one EdgewiseSharedPartners
  /// call.
  explicit PropertyTracker(
      const Graph& g,
      PropertyAnalysisMode mode = PropertyAnalysisMode::kIncremental);

  /// Applies the degree-preserving 2-swap that removes (i, j) and (a, b)
  /// and adds (i, b) and (a, j) — the committed-swap mirror of
  /// Graph::ReplaceEdge pairs in the rewiring loop. The inverse of
  /// ApplySwap(i, j, a, b) is ApplySwap(i, b, a, j).
  void ApplySwap(NodeId i, NodeId j, NodeId a, NodeId b);

  /// Materializes the tracked properties into a GraphProperties. Local
  /// fields (1)-(7) only; global fields keep their defaults. In
  /// kFromScratch mode this materializes the graph and runs the real
  /// analyzers instead — the cross-validation baseline.
  GraphProperties Snapshot() const;

  /// c̄ of the tracked graph: O(n) scan over the maintained triangle
  /// counts (from-scratch mode recomputes).
  double ClusteringGlobal() const;

  /// Number of connected components (isolated nodes count).
  std::size_t NumComponents() const;

  /// Size of the largest connected component (0 for an empty graph).
  std::size_t LccSize() const;

  /// Multiplicity A_uv currently tracked (A_vv = 2 × loops).
  std::int64_t Multiplicity(NodeId u, NodeId v) const;

  /// Rebuilds the tracked multigraph as a Graph (edge order
  /// unspecified). Analyzer results on it are still deterministic —
  /// every analyzer runs over a sorted CSR snapshot.
  Graph MaterializeGraph() const;

  PropertyAnalysisMode mode() const { return mode_; }

 private:
  using AdjacencyMap = std::unordered_map<NodeId, std::int32_t>;

  static std::uint64_t PairKey(NodeId u, NodeId v) {
    const NodeId lo = u < v ? u : v;
    const NodeId hi = u < v ? v : u;
    return (static_cast<std::uint64_t>(lo) << 32) |
           static_cast<std::uint64_t>(hi);
  }

  void AddEdgeInternal(NodeId x, NodeId y);
  void RemoveEdgeInternal(NodeId x, NodeId y);
  void BumpAdjacency(NodeId x, NodeId y, std::int32_t delta);

  /// Σ_{w ∉ {u,v}} A_uw A_vw from the tracked adjacency (probes the
  /// smaller map against the larger).
  std::int64_t SharedPartners(NodeId u, NodeId v) const;
  /// Moves the histogram weight `weight` of adjacent pair {u, v} from its
  /// current shared count to current + delta.
  void MovePairShared(NodeId u, NodeId v, std::int64_t weight,
                      std::int64_t delta);
  void BumpHistogram(std::int64_t shared, std::int64_t weight);

  /// Component-label merge after inserting edge (x, y): relabels the
  /// smaller component by BFS restricted to its old label.
  void MergeComponents(NodeId x, NodeId y);
  /// Component split check after removing edge (x, y): bidirectional BFS
  /// from both endpoints, bounded by the smaller resulting side; the
  /// exhausted side (if any) gets a fresh label.
  void SplitComponents(NodeId x, NodeId y);
  std::uint32_t AllocateComponentLabel();

  PropertyAnalysisMode mode_;

  // Tracked multigraph (both modes): A_uv with A_vv = 2 × loops.
  std::vector<AdjacencyMap> adj_;

  // Frozen under degree-preserving swaps.
  std::size_t num_nodes_ = 0;
  std::size_t num_edges_ = 0;  // loops count once, parallel edges apart
  double average_degree_ = 0.0;
  std::vector<std::uint32_t> degree_;
  std::vector<std::int64_t> class_n_;  // n(k), size MaxDegree()+1
  std::vector<double> degree_dist_;    // P(k)

  // Incremental state (kIncremental only).
  std::optional<TriangleTracker> triangles_;
  std::vector<std::int64_t> neighbor_degree_sum_;  // S_v = Σ_w A_vw d_w
  std::unordered_map<std::uint64_t, std::int64_t> pair_shared_;
  std::vector<std::int64_t> esp_histogram_;  // weight per shared count

  // Component labels. comp_size_[label] == 0 marks a free label (also
  // held in free_labels_).
  std::vector<std::uint32_t> component_;
  std::vector<std::size_t> component_size_;
  std::vector<std::uint32_t> free_labels_;
  std::size_t num_components_ = 0;

  // Reusable BFS scratch: epoch-stamped visit marks avoid O(n) clears.
  std::vector<std::uint64_t> mark_a_;
  std::vector<std::uint64_t> mark_b_;
  std::vector<NodeId> queue_a_;
  std::vector<NodeId> queue_b_;
  std::uint64_t epoch_ = 0;
};

}  // namespace sgr

#endif  // SGR_ANALYSIS_PROPERTY_TRACKER_H_
