#include "restore/assembler.h"

namespace sgr {

Graph AssembleFromSubgraph(const Subgraph& sub,
                           const TargetDegreeVectorResult& targets,
                           const DegreeVector& n_star,
                           const JointDegreeMatrix& m_star, Rng& rng) {
  return ConstructPreservingTargets(
      sub.graph, targets.subgraph_target_degrees, n_star, m_star, rng);
}

Graph AssembleFromSubgraphParallel(const Subgraph& sub,
                                   const TargetDegreeVectorResult& targets,
                                   const DegreeVector& n_star,
                                   const JointDegreeMatrix& m_star,
                                   std::uint64_t seed) {
  return ConstructPreservingTargetsParallel(
      sub.graph, targets.subgraph_target_degrees, n_star, m_star, seed);
}

}  // namespace sgr
