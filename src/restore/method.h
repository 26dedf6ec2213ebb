#ifndef SGR_RESTORE_METHOD_H_
#define SGR_RESTORE_METHOD_H_

#include <cstddef>
#include <string>

#include "estimation/estimates.h"
#include "estimation/estimators.h"
#include "graph/graph.h"
#include "restore/rewirer.h"

namespace sgr {

/// Options shared by the generative restoration methods (proposed and
/// Gjoka et al.).
struct RestorationOptions {
  /// Rewiring-phase options (RC = 500 reproduces the paper's setting).
  RewireOptions rewire;

  /// Estimator options (collision-lag fraction, joint-estimator mode,
  /// walk type). Set `estimator.walk_type = WalkType::kNonBacktracking`
  /// when the sampling list came from NonBacktrackingWalkSample (the
  /// experiment runner derives this automatically from its walk axis).
  EstimatorOptions estimator;

  /// Whether the proposed method's rewiring phase protects the sampled
  /// subgraph edges E' — i.e. rewires over E~ \ E' (Section IV-E, the
  /// paper's choice). `false` exposes Gjoka et al.'s all-edges candidate
  /// set inside the proposed pipeline: the rewiring pass may then destroy
  /// subgraph edges (the `ablation-rewire` scenario measures the effect).
  /// Ignored by RestoreGjoka, which never protects edges.
  bool protect_subgraph = true;

  /// If true, a degree-matched simplification pass (restore/simplify.h)
  /// runs after rewiring, removing most self-loops and parallel edges
  /// while preserving the degree vector, the joint degree matrix, and the
  /// sampled subgraph. Off by default: the paper's generated graphs keep
  /// them (Section III-A allows both).
  bool simplify_output = false;

  /// When true, the rewiring phase samples a convergence curve
  /// (RewireStats::curve) from its own triangle tracker and graph.
  /// Observation only — results are byte-identical with tracking on or
  /// off (see restore/rewirer.h).
  bool track_properties = false;

  /// Adaptive rewiring stop (requires `track_properties`): halt the
  /// rewiring phase once the tracked L1 clustering distance is within
  /// this epsilon of the target. 0 disables the stop.
  double stop_epsilon = 0.0;
};

/// Result of applying a restoration method to a sample.
struct RestorationResult {
  /// The generated graph G~ (for subgraph sampling: the subgraph G').
  Graph graph;

  /// Wall-clock generation time in seconds (excludes crawling, as in
  /// Table IV: generation starts from the sampling list).
  double total_seconds = 0.0;

  /// Seconds spent in the rewiring phase (Table IV reports it separately).
  double rewiring_seconds = 0.0;

  /// Rewiring statistics (attempts, acceptances, objective trajectory).
  RewireStats rewire_stats;

  /// Local-property estimates the generation used (empty for subgraph
  /// sampling).
  LocalEstimates estimates;

  /// |V'qry|, |V'| and |E'| of the sampled subgraph (diagnostics).
  std::size_t subgraph_queried = 0;
  std::size_t subgraph_nodes = 0;
  std::size_t subgraph_edges = 0;
};

/// Identifiers for the six methods compared in the paper's evaluation.
enum class MethodKind {
  kBfs,        ///< subgraph sampling via breadth-first search
  kSnowball,   ///< subgraph sampling via snowball (k = 50)
  kForestFire, ///< subgraph sampling via forest fire (pf = 0.7)
  kRandomWalk, ///< subgraph sampling via random walk
  kGjoka,      ///< Gjoka et al.'s 2.5K generation (Appendix B)
  kProposed,   ///< the paper's proposed restoration method
};

/// Display name used by the table printers ("BFS", "Snowball", "FF", "RW",
/// "Gjoka et al.", "Proposed").
std::string MethodName(MethodKind kind);

}  // namespace sgr

#endif  // SGR_RESTORE_METHOD_H_
