#ifndef SGR_ESTIMATION_ESTIMATORS_H_
#define SGR_ESTIMATION_ESTIMATORS_H_

#include <cstddef>

#include "estimation/estimates.h"
#include "sampling/sampling_list.h"

namespace sgr {

/// Which walk produced the sampling list. The node-level stationary
/// distribution is degree-proportional for both, so n̂, k̂̄, P̂(k) and
/// P̂(k,k') carry over unchanged; only the clustering estimator's interior
/// term differs: under a simple walk x_{i+1} is uniform over all k
/// neighbors (so Φ_c divides by k-1 after conditioning), while a
/// non-backtracking walk picks uniformly among the k-1 non-returning
/// neighbors (so the correct normalizer is k).
enum class WalkType {
  kSimple,           ///< simple random walk (the paper's setting)
  kNonBacktracking,  ///< Lee et al.'s NBRW (extension)
};

/// Which joint-degree-distribution estimator to use. The paper's method is
/// the hybrid; the pure variants exist for the `ablation-jdm` scenario.
enum class JointEstimatorMode {
  kHybrid,             ///< IE above the 2 k̂̄ threshold, TE below (paper)
  kInducedEdgesOnly,   ///< P̂IE everywhere
  kTraversedEdgesOnly, ///< P̂TE everywhere
};

/// Fixed chunk width of the estimator pass: every accumulation over the
/// walk (and over the crawled adjacency) is split into partial sums over
/// consecutive index ranges of this size and reduced in ascending chunk
/// order. The grid depends only on the walk length, so the summation
/// order of every double-valued estimate is fixed by the input. A walk
/// shorter than one chunk reduces to the historical single-pass
/// accumulation exactly.
inline constexpr std::size_t kEstimatorChunkSize = 1024;

/// Options for the re-weighted random walk estimators.
struct EstimatorOptions {
  /// Collision-pair threshold as a fraction of the walk length: pairs
  /// (i, j) participate only when |i - j| >= max(1, round(fraction * r)).
  /// The paper (following Hardiman & Katzir / Katzir et al.) uses 0.025.
  double collision_threshold_fraction = 0.025;

  /// Joint-degree estimator selection (ablation knob).
  JointEstimatorMode joint_mode = JointEstimatorMode::kHybrid;

  /// Walk type of the sampling list (selects the clustering-estimator
  /// normalizer; see WalkType).
  WalkType walk_type = WalkType::kSimple;
};

/// Computes the five local-property estimates of Section III-E from a
/// random-walk sampling list:
///   * number of nodes n̂ (collision estimator with lag threshold M),
///   * average degree k̂̄ = 1 / Φ̄,
///   * degree distribution P̂(k) = Φ(k) / Φ̄,
///   * joint degree distribution P̂(k, k') — the hybrid IE/TE estimator with
///     threshold k + k' >= 2 k̂̄ (proved unbiased in the paper's Appendix A),
///   * degree-dependent clustering coefficient ĉ̄(k) = Φ_c(k) / Φ(k).
///
/// Complexity: O(r log r + Σ_i d(x_i) log r). The quadratic pair sums of
/// the definitions are evaluated exactly using prefix sums over 1/d and
/// per-node sorted position lists (see DESIGN.md, "Faithfulness notes").
/// The estimators read the finished list directly (compact walk, sorted
/// rows). The dominant passes (degree/Φ accumulation, the induced-edge
/// scan, the clustering indicator, and the collision sums) are chunked
/// over the fixed kEstimatorChunkSize grid and reduced in canonical chunk
/// order.
///
/// `list.is_walk()` must be true: the estimators rely on the Markov property
/// of the sequence — a non-walk sample (BFS / snowball / forest fire)
/// throws std::invalid_argument, since re-weighting such a crawl would
/// silently produce biased numbers.
///
/// Degenerate-but-legal inputs return defined values instead of NaN/UB:
/// walks shorter than 3 steps (a budget of one queried node, or an empty
/// hand-built list) fall back to plain small-sample statistics — n̂ = the
/// number of distinct nodes seen, k̂̄ = the plain mean degree of the
/// visited nodes, P̂(k) = the visit frequencies, empty P̂(k, k') and
/// ĉ̄(k) ≡ 0 — and a crawl whose queried nodes all have degree 0 yields
/// k̂̄ = 0 with zero distributions.
LocalEstimates EstimateLocalProperties(const SamplingList& list,
                                       const EstimatorOptions& options = {});

/// The collision estimator n̂ alone (exposed for tests and ablations).
/// Returns `fallback` when no collision pair exists at lag >= M, when the
/// walk is shorter than 3 steps, or when `list` is not a walk.
double EstimateNumNodes(const SamplingList& list, double fallback,
                        const EstimatorOptions& options = {});

/// The average-degree estimator k̂̄ alone. Returns 0 for an empty list, a
/// non-walk list, or a list whose visited nodes all have degree 0 (no
/// finite harmonic mean exists). The harmonic sum runs over the
/// kEstimatorChunkSize grid.
double EstimateAverageDegree(const SamplingList& list);

}  // namespace sgr

#endif  // SGR_ESTIMATION_ESTIMATORS_H_
