#ifndef SGR_RESTORE_ASSEMBLER_H_
#define SGR_RESTORE_ASSEMBLER_H_

#include "dk/dk_construct.h"
#include "dk/joint_degree_matrix.h"
#include "restore/target_degree_vector.h"
#include "sampling/subgraph.h"
#include "util/rng.h"

namespace sgr {

/// Third phase of the proposed method (Section IV-D, Algorithm 5): adds
/// nodes and edges to the sampled subgraph so that the result contains G'
/// and exactly realizes the target degree vector and target joint degree
/// matrix. Thin, documented wrapper over the generic dK construction engine
/// (dk/dk_construct.h), which also serves the Gjoka baseline with an empty
/// base graph.
Graph AssembleFromSubgraph(const Subgraph& sub,
                           const TargetDegreeVectorResult& targets,
                           const DegreeVector& n_star,
                           const JointDegreeMatrix& m_star, Rng& rng);

}  // namespace sgr

#endif  // SGR_RESTORE_ASSEMBLER_H_
