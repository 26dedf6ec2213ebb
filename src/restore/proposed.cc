#include "restore/proposed.h"

#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "restore/assembler.h"
#include "restore/simplify.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/subgraph.h"

namespace sgr {

RestorationResult RestoreProposed(const SamplingList& list,
                                  const RestorationOptions& options,
                                  Rng& rng) {
  Timer total;
  RestorationResult result;

  // Preliminary phase: subgraph + re-weighted estimates.
  obs::Span estimate_span("estimate");
  const Subgraph sub = BuildSubgraph(list);
  result.estimates = EstimateLocalProperties(list, options.estimator);
  result.subgraph_queried = sub.NumQueried();
  result.subgraph_nodes = sub.graph.NumNodes();
  result.subgraph_edges = sub.graph.NumEdges();
  estimate_span.End();

  // First phase: target degree vector + per-node target degrees.
  obs::Span extract_span("dk_extract");
  TargetDegreeVectorResult targets =
      BuildTargetDegreeVector(sub, result.estimates, rng);

  // Second phase: target joint degree matrix (may grow the degree vector).
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, targets.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(result.estimates, targets.n_star, m_prime, rng);
  extract_span.End();

  // Third phase: extend the subgraph to realize both targets.
  obs::Span assemble_span("assemble");
  result.graph =
      AssembleFromSubgraph(sub, targets, targets.n_star, m_star, rng);
  assemble_span.End();

  // Fourth phase: rewire non-subgraph edges toward ĉ̄(k). Protecting the
  // first |E'| edge ids (the subgraph edges copied first by Algorithm 5)
  // realizes E~rew = E~ \ E'; `protect_subgraph = false` widens the
  // candidate set to all of E~ (Gjoka et al.'s choice — the candidate-set
  // ablation).
  const std::size_t protected_edges =
      options.protect_subgraph ? sub.graph.NumEdges() : 0;
  RewireOptions rewire_options = options.rewire;
  rewire_options.track_properties = options.track_properties;
  rewire_options.stop_epsilon = options.stop_epsilon;
  obs::Span rewire_span("rewire");
  total.LapSeconds();  // open the rewiring lap
  result.rewire_stats =
      RewireToClustering(result.graph, protected_edges,
                         result.estimates.clustering, rewire_options, rng);
  result.rewiring_seconds = total.LapSeconds();
  rewire_span.End();

  if (options.simplify_output) {
    SimplifyByRewiring(result.graph, protected_edges, rng);
  }
  result.total_seconds = total.Seconds();
  return result;
}

}  // namespace sgr
