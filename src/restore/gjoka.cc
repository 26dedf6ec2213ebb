#include "restore/gjoka.h"

#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "restore/simplify.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/subgraph.h"

namespace sgr {

RestorationResult RestoreGjoka(const SamplingList& list,
                               const RestorationOptions& options, Rng& rng) {
  Timer total;
  RestorationResult result;

  obs::Span estimate_span("estimate");
  result.estimates = EstimateLocalProperties(list, options.estimator);
  {
    // Subgraph sizes recorded for diagnostics only; the method itself never
    // looks at the subgraph structure.
    const Subgraph sub = BuildSubgraph(list);
    result.subgraph_queried = sub.NumQueried();
    result.subgraph_nodes = sub.graph.NumNodes();
    result.subgraph_edges = sub.graph.NumEdges();
  }
  estimate_span.End();

  obs::Span extract_span("dk_extract");
  TargetDegreeVectorResult targets =
      BuildTargetDegreeVectorFromEstimates(result.estimates);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(result.estimates, targets.n_star, rng);
  extract_span.End();

  obs::Span assemble_span("assemble");
  result.graph = Construct2kGraph(targets.n_star, m_star, rng);
  assemble_span.End();

  RewireOptions rewire_options = options.rewire;
  rewire_options.track_properties = options.track_properties;
  rewire_options.stop_epsilon = options.stop_epsilon;
  obs::Span rewire_span("rewire");
  total.LapSeconds();  // open the rewiring lap
  result.rewire_stats = RewireToClustering(
      result.graph, /*num_protected_edges=*/0, result.estimates.clustering,
      rewire_options, rng);
  result.rewiring_seconds = total.LapSeconds();
  rewire_span.End();

  if (options.simplify_output) {
    SimplifyByRewiring(result.graph, /*num_protected_edges=*/0, rng);
  }
  result.total_seconds = total.Seconds();
  return result;
}

}  // namespace sgr
