#ifndef SGR_ANALYSIS_PROPERTIES_H_
#define SGR_ANALYSIS_PROPERTIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"

namespace sgr {

/// Options for the property analyzers.
struct PropertyOptions {
  /// Number of BFS/Brandes source nodes for the shortest-path properties
  /// (average length, length distribution, diameter, betweenness). 0 means
  /// exact all-pairs evaluation. Sampling (with this fixed seed) is applied
  /// identically to original and generated graphs, mirroring the paper's
  /// use of parallel evaluation algorithms that "do not affect the
  /// performance of each method" (Section V-B).
  std::size_t max_path_sources = 0;

  /// Source-sampling seed.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  /// Worker threads for the shortest-path/betweenness evaluation (the
  /// paper evaluates with the parallel algorithms of Bader & Madduri,
  /// noting they do not affect method performance — only evaluation
  /// speed). 0 = hardware concurrency. The source set is identical for
  /// every thread count, but the floating-point sums are merged per
  /// worker, so b̄(k) and ℓ̄ can differ in their last bits between thread
  /// counts. The default of 1 keeps results deterministic.
  std::size_t threads = 1;

  /// Power-iteration cap and convergence tolerance for λ1.
  std::size_t power_iterations = 1000;
  double power_tolerance = 1e-10;
};

/// The 12 structural properties of Section V-B. Vector-valued properties
/// are indexed by their natural argument (degree k, shared partners s, or
/// path length l) starting at 0. Shortest-path properties are computed on
/// the largest connected component of the simplified graph, as the paper
/// prescribes.
struct GraphProperties {
  // Local properties (1)-(7).
  std::size_t num_nodes = 0;                      ///< (1) n
  double average_degree = 0.0;                    ///< (2) k̄ = 2m/n
  std::vector<double> degree_dist;                ///< (3) P(k)
  std::vector<double> neighbor_connectivity;      ///< (4) k̄nn(k)
  double clustering_global = 0.0;                 ///< (5) c̄
  std::vector<double> clustering_by_degree;       ///< (6) c̄(k)
  std::vector<double> esp_dist;                   ///< (7) P(s), edgewise
                                                  ///  shared partners

  // Global properties (8)-(12).
  double average_path_length = 0.0;               ///< (8) ℓ̄ (on LCC)
  std::vector<double> path_length_dist;           ///< (9) P(l) (on LCC)
  std::size_t diameter = 0;                       ///< (10) l_max (on LCC)
  std::vector<double> betweenness_by_degree;      ///< (11) b̄(k) (on LCC)
  double largest_eigenvalue = 0.0;                ///< (12) λ1
};

/// Computes all 12 properties of `g`.
GraphProperties ComputeProperties(const CsrGraph& g,
                                  const PropertyOptions& options = {});

/// Individual analyzers, exposed for tests and partial evaluation. All are
/// multiplicity-aware (generated graphs may contain multi-edges/loops).

/// P(k) = n(k)/n.
std::vector<double> DegreeDistribution(const CsrGraph& g);

/// k̄nn(k): mean over degree-k nodes of (1/k) Σ_j A_ij d_j.
std::vector<double> NeighborConnectivity(const CsrGraph& g);

/// Network clustering coefficient c̄ = (1/n) Σ_i 2 t_i / (d_i (d_i - 1)).
double NetworkClusteringCoefficient(const CsrGraph& g);

/// c̄ from per-node triangle counts `t` the caller already has — the single
/// home of the formula. `G` is any graph with NumNodes() and Degree(v): the
/// analyzers pass their CsrGraph, the rewiring loop's convergence samples
/// the Graph it rewires with its TriangleTracker's counts.
template <typename G>
double NetworkClusteringFromTriangles(const G& g,
                                      const std::vector<std::int64_t>& t) {
  if (g.NumNodes() == 0) return 0.0;
  double total = 0.0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::size_t d = g.Degree(v);
    if (d >= 2) {
      total += 2.0 * static_cast<double>(t[v]) /
               (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return total / static_cast<double>(g.NumNodes());
}

/// Edgewise shared-partner distribution P(s): fraction of (non-loop) edges
/// whose endpoints have exactly s common neighbors (Σ_k A_ik A_jk).
std::vector<double> EdgewiseSharedPartners(const CsrGraph& g);

/// Largest adjacency eigenvalue via power iteration.
double LargestEigenvalue(const CsrGraph& g,
                         std::size_t max_iterations = 1000,
                         double tolerance = 1e-10);

/// Shortest-path bundle computed on the LCC of the simplified graph.
struct ShortestPathProperties {
  double average_length = 0.0;
  std::vector<double> length_dist;
  std::size_t diameter = 0;
  std::vector<double> betweenness_by_degree;
};
ShortestPathProperties ComputeShortestPathProperties(
    const CsrGraph& g, const PropertyOptions& options = {});

/// Exact per-node betweenness centrality (Brandes) on a connected simple
/// graph; ordered-pair convention (each unordered pair contributes twice),
/// matching the paper's definition. Exposed for cross-validation tests.
std::vector<double> BetweennessCentrality(const CsrGraph& g);

}  // namespace sgr

#endif  // SGR_ANALYSIS_PROPERTIES_H_
