#include "restore/assembler.h"

namespace sgr {

Graph AssembleFromSubgraph(const Subgraph& sub,
                           const TargetDegreeVectorResult& targets,
                           const DegreeVector& n_star,
                           const JointDegreeMatrix& m_star, Rng& rng) {
  return ConstructPreservingTargets(
      sub.graph, targets.subgraph_target_degrees, n_star, m_star, rng);
}

}  // namespace sgr
