#ifndef SGR_DK_DK_EXTRACT_H_
#define SGR_DK_DK_EXTRACT_H_

#include <vector>

#include "dk/degree_vector.h"
#include "dk/joint_degree_matrix.h"
#include "graph/csr_graph.h"

namespace sgr {

/// Extraction of dK-series statistics from a complete graph (Section III-C).
/// These are ground-truth counterparts of the re-weighted estimates, used by
/// the analysis module, the test suite, and the dK generation toolkit.

/// Degree vector {n(k)}: ExtractDegreeVector(g)[k] counts nodes of degree k.
DegreeVector ExtractDegreeVector(const CsrGraph& g);

/// Joint degree matrix {m(k,k')}: number of edges between degree classes.
/// A self-loop at a degree-k node contributes 1 to m(k,k) (it is one edge
/// whose both endpoints have degree k).
JointDegreeMatrix ExtractJointDegreeMatrix(const CsrGraph& g);

/// Per-node triangle counts t_i = Σ_{j<l} A_ij A_il A_jl (multiplicity
/// aware; self-loops form no triangles). One degree-ordered node-iterator
/// algorithm over the sorted CSR arrays covers simple graphs and
/// multigraphs alike: distinct-neighbor lists with multiplicities come
/// from run-length scanning the sorted ranges, and every triangle is found
/// exactly once at its lowest-ranked oriented edge. O(m^{3/2}) in the
/// number of distinct edges.
std::vector<std::int64_t> CountTrianglesPerNode(const CsrGraph& g);

/// Degree-dependent clustering coefficient {c̄(k)}: c̄(k) is the mean of
/// 2 t_i / (k (k-1)) over nodes of degree k; c̄(0) = c̄(1) = 0. The result
/// has size MaxDegree()+1. The `triangles` overload reuses a
/// CountTrianglesPerNode result the caller already has (the property
/// analyzer computes several clustering statistics from one triangle
/// pass).
std::vector<double> ExtractDegreeDependentClustering(const CsrGraph& g);
std::vector<double> ExtractDegreeDependentClustering(
    const CsrGraph& g, const std::vector<std::int64_t>& triangles);

}  // namespace sgr

#endif  // SGR_DK_DK_EXTRACT_H_
