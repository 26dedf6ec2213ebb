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

/// Options of the parallel Algorithm 5 assembly engine
/// (ConstructPreservingTargetsParallel).
///
/// `enabled` is an algorithm knob: the parallel engine draws its stub
/// picks from per-class-pair RNG streams derived with DeriveRoundSeed
/// instead of the caller's single sequential stream, so it selects a
/// different (equally valid) realization of the same targets — exactly
/// like ParallelRewireOptions::batch_size selects a different rewiring
/// trajectory.
struct ParallelAssemblyOptions {
  /// Selects the engine: false (the default) runs the classic sequential
  /// stub-matching loop on the caller's RNG stream; true runs
  /// ConstructPreservingTargetsParallel's per-class-pair streams.
  bool enabled = false;
};

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

/// Per-class-pair-stream variant of ConstructPreservingTargets — the same
/// Algorithm 5 semantics (node addition, stub pooling, m*(k,k')
/// target-copy wiring, identical realization-condition checks) with the
/// randomness split into independent streams:
///
///   1. the added-node degree sequence is shuffled with a stream derived
///      from `seed` (DeriveRoundSeed — independent of everything else),
///   2. the class pairs (k, k') with m*(k,k') - m'(k,k') > 0 edges to copy
///      are wired in canonical (k, k') order, the p-th of them drawing its
///      stubs from its own stream DeriveRoundSeed(seed, stream, p).
///
/// Every pair's draws are a pure function of (seed, pair index). The
/// output differs from the sequential ConstructPreservingTargets for any
/// seed (different RNG streams — an algorithm knob, see
/// ParallelAssemblyOptions); both realize the same (n*, m*) targets
/// exactly.
Graph ConstructPreservingTargetsParallel(
    const Graph& base, const std::vector<std::uint32_t>& base_target_degrees,
    const DegreeVector& n_star, const JointDegreeMatrix& m_star,
    std::uint64_t seed);

/// Classic 2K construction: a random graph realizing (n*, m*) from an empty
/// base.
Graph Construct2kGraph(const DegreeVector& n_star,
                       const JointDegreeMatrix& m_star, Rng& rng);

/// 2K construction from an empty base on per-class-pair streams (the
/// Gjoka et al. baseline through ConstructPreservingTargetsParallel).
Graph Construct2kGraphParallel(const DegreeVector& n_star,
                               const JointDegreeMatrix& m_star,
                               std::uint64_t seed);

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
