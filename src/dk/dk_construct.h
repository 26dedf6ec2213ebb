#ifndef SGR_DK_DK_CONSTRUCT_H_
#define SGR_DK_DK_CONSTRUCT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dk/degree_vector.h"
#include "dk/joint_degree_matrix.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace sgr {

/// Constructs a graph that contains `base` as a subgraph and exactly
/// realizes the target degree vector {n*(k)} and target joint degree matrix
/// {m*(k,k')} (Algorithm 5 of the paper).
///
/// `base_target_degrees[i]` is the target degree d*_i assigned to base node
/// i during the first phase; it must be >= the degree of i in `base`.
/// The targets must satisfy the realization conditions DV-1..3 and
/// JDM-1..4 with respect to `base` (guaranteed by the target builders);
/// violations are detected and reported via std::logic_error.
///
/// With an empty base this is the classic 2K construction from scratch used
/// by the Gjoka et al. baseline (Appendix B) and by the standalone dK
/// toolkit. The generated graph may contain multi-edges and self-loops,
/// which the problem definition allows (Section III-A).
Graph ConstructPreservingTargets(
    const Graph& base, const std::vector<std::uint32_t>& base_target_degrees,
    const DegreeVector& n_star, const JointDegreeMatrix& m_star, Rng& rng);

/// Classic 2K construction: a random graph realizing (n*, m*) from an empty
/// base.
Graph Construct2kGraph(const DegreeVector& n_star,
                       const JointDegreeMatrix& m_star, Rng& rng);

/// 1K construction (configuration model): a random multigraph realizing a
/// degree vector exactly — stubs are shuffled uniformly and paired. The
/// degree sum must be even (DV-2). Lower rung of the dK-series ladder
/// (Section III-C); used by the dK toolkit and ablations.
Graph Construct1kGraph(const DegreeVector& n_star, Rng& rng);

/// 0K construction: n nodes and m uniformly random edges (loops and
/// multi-edges allowed) — preserves only n and the average degree, the
/// bottom of the dK-series.
Graph Construct0kGraph(std::size_t num_nodes, std::size_t num_edges,
                       Rng& rng);

/// Number of edges between target-degree classes inside `base`:
/// m'(k,k') (Section IV-C, condition JDM-4).
JointDegreeMatrix SubgraphClassEdges(
    const Graph& base, const std::vector<std::uint32_t>& base_target_degrees);

}  // namespace sgr

#endif  // SGR_DK_DK_CONSTRUCT_H_
