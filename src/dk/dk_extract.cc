#include "dk/dk_extract.h"

#include <algorithm>
#include <cstdint>

namespace sgr {

DegreeVector ExtractDegreeVector(const Graph& g) {
  DegreeVector dv(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) ++dv[g.Degree(v)];
  return dv;
}

DegreeVector ExtractDegreeVector(const CsrGraph& g) {
  DegreeVector dv(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) ++dv[g.Degree(v)];
  return dv;
}

JointDegreeMatrix ExtractJointDegreeMatrix(const Graph& g) {
  return ExtractJointDegreeMatrix(CsrGraph(g));
}

JointDegreeMatrix ExtractJointDegreeMatrix(const CsrGraph& g) {
  JointDegreeMatrix jdm;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const NeighborSpan nbrs = g.neighbors(v);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == w) ++run;
      i += run;
      if (w < v) continue;  // each edge once, off the lower endpoint
      // A loop contributes two entries per copy.
      const std::size_t copies = (w == v) ? run / 2 : run;
      jdm.AddSymmetric(static_cast<std::uint32_t>(g.Degree(v)),
                       static_cast<std::uint32_t>(g.Degree(w)),
                       static_cast<std::int64_t>(copies));
    }
  }
  return jdm;
}

std::vector<std::int64_t> CountTrianglesPerNode(const Graph& g) {
  return CountTrianglesPerNode(CsrGraph(g));
}

std::vector<std::int64_t> CountTrianglesPerNode(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  std::vector<std::int64_t> t(n, 0);
  auto rank_less = [&g](NodeId a, NodeId b) {
    return g.Degree(a) != g.Degree(b) ? g.Degree(a) < g.Degree(b) : a < b;
  };

  // Forward lists: for each node, its distinct higher-ranked neighbors with
  // edge multiplicities, in ascending id order. The sorted CSR ranges make
  // distinct-neighbor extraction a run-length scan, and id order is
  // preserved, so intersections below are linear merges.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> fwd_nbr;
  std::vector<std::int64_t> fwd_mult;
  fwd_nbr.reserve(g.NumEdges());
  fwd_mult.reserve(g.NumEdges());
  for (NodeId v = 0; v < n; ++v) {
    const NeighborSpan nbrs = g.neighbors(v);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == w) ++run;
      i += run;
      if (w == v) continue;  // loops form no triangles
      if (rank_less(v, w)) {
        fwd_nbr.push_back(w);
        fwd_mult.push_back(static_cast<std::int64_t>(run));
      }
    }
    offsets[v + 1] = fwd_nbr.size();
  }

  // Every triangle {a, b, c} with rank a < b < c is oriented a->b, a->c,
  // b->c and found exactly once: at the directed edge (a, b), as the
  // intersection of the forward lists of a and b. The multiplicity product
  // A_ab A_ac A_bc is what t_i = Σ_{j<l} A_ij A_il A_jl accumulates at
  // each corner, so the same pass is exact for multigraphs.
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const NodeId v = fwd_nbr[e];
      const std::int64_t m_uv = fwd_mult[e];
      std::size_t a = offsets[u];
      std::size_t b = offsets[v];
      while (a < offsets[u + 1] && b < offsets[v + 1]) {
        if (fwd_nbr[a] < fwd_nbr[b]) {
          ++a;
        } else if (fwd_nbr[a] > fwd_nbr[b]) {
          ++b;
        } else {
          const NodeId w = fwd_nbr[a];
          const std::int64_t weight = m_uv * fwd_mult[a] * fwd_mult[b];
          t[u] += weight;
          t[v] += weight;
          t[w] += weight;
          ++a;
          ++b;
        }
      }
    }
  }
  return t;
}

std::vector<double> ExtractDegreeDependentClustering(const Graph& g) {
  return ExtractDegreeDependentClustering(CsrGraph(g));
}

std::vector<double> ExtractDegreeDependentClustering(const CsrGraph& g) {
  return ExtractDegreeDependentClustering(g, CountTrianglesPerNode(g));
}

std::vector<double> ExtractDegreeDependentClustering(
    const CsrGraph& g, const std::vector<std::int64_t>& triangles) {
  const DegreeVector dv = ExtractDegreeVector(g);
  std::vector<double> c(dv.size(), 0.0);
  std::vector<double> sums(dv.size(), 0.0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::size_t k = g.Degree(v);
    if (k >= 2) {
      sums[k] += 2.0 * static_cast<double>(triangles[v]) /
                 (static_cast<double>(k) * static_cast<double>(k - 1));
    }
  }
  for (std::size_t k = 2; k < dv.size(); ++k) {
    if (dv[k] > 0) c[k] = sums[k] / static_cast<double>(dv[k]);
  }
  return c;
}

}  // namespace sgr
