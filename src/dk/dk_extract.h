#ifndef SGR_DK_DK_EXTRACT_H_
#define SGR_DK_DK_EXTRACT_H_

#include <cstdint>
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

/// Common-neighbor counts of a graph, all from one pass (Section V-B,
/// properties (5)-(7)). Both are multiplicity aware, and self-loops count
/// toward neither.
struct LocalCounts {
  /// Per-node triangle counts t_i = Σ_{j<l} A_ij A_il A_jl.
  std::vector<std::int64_t> triangles;
  /// shared_partner_histogram[s]: the number of non-loop edges (parallel
  /// copies counted) whose endpoints u, v have s = Σ_{w != u,v} A_uw A_vw
  /// shared partners. Sized one past the largest s present.
  std::vector<std::int64_t> shared_partner_histogram;
};

/// The one common-neighbor kernel. Each distinct connected pair (u, v) is
/// visited once, at the endpoint with the larger (degree, id): that
/// endpoint's multiplicities are stamped into a dense array and the other
/// endpoint's row is scanned against them, giving s(u, v). The pair adds
/// A_uv to the histogram at s(u, v), and A_uv·s(u, v) to t_u and t_v,
/// which are halved at the end. O(Σ over pairs of the lower-ranked
/// endpoint's degree) time, O(n) scratch.
LocalCounts CountSharedPartners(const CsrGraph& g);

/// CountSharedPartners(g).triangles.
std::vector<std::int64_t> CountTrianglesPerNode(const CsrGraph& g);

/// Degree-dependent clustering coefficient {c̄(k)}: c̄(k) is the mean of
/// 2 t_i / (k (k-1)) over nodes of degree k; c̄(0) = c̄(1) = 0. The result
/// has size MaxDegree()+1. The `triangles` overload reuses the triangle
/// counts the caller already has (the property analyzer derives c̄, c̄(k)
/// and P(s) from one CountSharedPartners pass).
std::vector<double> ExtractDegreeDependentClustering(const CsrGraph& g);
std::vector<double> ExtractDegreeDependentClustering(
    const CsrGraph& g, const std::vector<std::int64_t>& triangles);

}  // namespace sgr

#endif  // SGR_DK_DK_EXTRACT_H_
