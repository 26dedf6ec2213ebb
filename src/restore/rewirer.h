#ifndef SGR_RESTORE_REWIRER_H_
#define SGR_RESTORE_REWIRER_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace sgr {

/// Options for the rewiring phase (Algorithm 6).
struct RewireOptions {
  /// Coefficient RC of the number of rewiring attempts: R = RC * |E~rew|.
  /// The paper uses RC = 500 (following Orsini et al.).
  double rewiring_coefficient = 500.0;

  /// When true, the engine fills RewireStats::curve with
  /// kConvergenceSamples evenly spaced convergence samples, read from the
  /// state the loop already holds: the objective, c̄ from its
  /// TriangleTracker's triangle counts, and components and LCC from one
  /// BFS pass over the graph per sample. Pure observation: the proposal
  /// stream, the acceptance decisions, and the rewired graph are
  /// byte-identical with tracking on or off (no extra RNG draws, no
  /// objective perturbation).
  bool track_properties = false;

  /// Adaptive stop: when `track_properties` is set and `stop_epsilon` is
  /// positive, the engine halts as soon as the loop's normalized L1
  /// distance to the target clustering is <= stop_epsilon
  /// (RewireStats::stopped_early records that it fired, and
  /// RewireStats::attempts then reports the attempts actually made).
  /// 0 disables the stop.
  double stop_epsilon = 0.0;
};

/// One point of the rewiring convergence curve recorded when
/// RewireOptions::track_properties is on: the swap-sensitive properties
/// of the working graph after `attempts` trial swaps.
struct ConvergenceSample {
  std::size_t attempts = 0;        ///< attempts completed at this sample
  double objective = 0.0;          ///< normalized L1 clustering distance
  double clustering_global = 0.0;  ///< c̄ of the working graph
  std::size_t components = 0;      ///< connected components
  std::size_t lcc = 0;             ///< largest-component size
};

/// Number of evenly spaced convergence samples a tracked run records.
/// Fixed so per-sample aggregation across trials lines up index-by-index.
inline constexpr std::size_t kConvergenceSamples = 16;

/// Outcome statistics of a rewiring run.
struct RewireStats {
  std::size_t attempts = 0;          ///< R, total trial swaps (actual count
                                     ///  when the adaptive stop fires)
  std::size_t accepted = 0;          ///< swaps that reduced the objective
  double initial_distance = 0.0;     ///< normalized L1 before rewiring
  double final_distance = 0.0;       ///< normalized L1 after rewiring

  // Property tracking (RewireOptions::track_properties). `curve` holds
  // exactly kConvergenceSamples points for a tracked run that rewired
  // anything, padded with the final state when the adaptive stop fired;
  // empty when tracking is off or the guard paths returned early.
  std::vector<ConvergenceSample> curve;
  bool stopped_early = false;    ///< the stop_epsilon halt fired
};

/// Rewires edges of `g` so that its degree-dependent clustering coefficient
/// approaches `target_clustering` (Algorithm 6).
///
/// Edge ids below `num_protected_edges` form E' and are never rewired: the
/// proposed method protects the sampled subgraph (E~rew = E~ \ E'), which is
/// both what preserves the subgraph structure and the source of its speedup
/// over Gjoka et al.'s variant (which passes 0 and rewires everything).
/// `num_protected_edges > g.NumEdges()` leaves nothing to rewire and
/// returns empty stats (as does any candidate set smaller than 2).
///
/// Each attempt draws an ordered pair of distinct candidate edges, picks a
/// uniformly random endpoint orientation ((i,j),(a,b)) with deg(i) = deg(a)
/// (attempt fails if none exists), and replaces the pair with
/// ((i,b),(a,j)) iff the normalized L1 distance between the present and
/// target degree-dependent clustering strictly decreases. Degree-matched
/// swaps preserve the degree vector and joint degree matrix exactly.
///
/// Throws std::invalid_argument when R = RC * |E~rew| is not below 2^63
/// (no attempt count that large could ever finish).
RewireStats RewireToClustering(Graph& g, std::size_t num_protected_edges,
                               const std::vector<double>& target_clustering,
                               const RewireOptions& options, Rng& rng);

}  // namespace sgr

#endif  // SGR_RESTORE_REWIRER_H_
