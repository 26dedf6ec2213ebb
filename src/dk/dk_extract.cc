#include "dk/dk_extract.h"

#include <cstdint>

namespace sgr {

DegreeVector ExtractDegreeVector(const CsrGraph& g) {
  DegreeVector dv(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) ++dv[g.Degree(v)];
  return dv;
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

LocalCounts CountSharedPartners(const CsrGraph& g) {
  // s(u, v) is the same for every parallel copy of an edge, so each
  // distinct pair is scanned once, from its higher-ranked endpoint u (the
  // other list is the shorter or equal one), and weighted by A_uv. Summed
  // over v, A_uv s(u, v) counts each of u's triangles twice, once per
  // other corner, so t is halved at the end.
  const auto ranks_above = [&g](NodeId a, NodeId b) {
    return g.Degree(a) != g.Degree(b) ? g.Degree(a) > g.Degree(b) : a > b;
  };
  LocalCounts counts;
  std::vector<std::int64_t>& t = counts.triangles;
  std::vector<std::int64_t>& histogram = counts.shared_partner_histogram;
  t.assign(g.NumNodes(), 0);
  std::vector<std::int64_t> mark(g.NumNodes(), 0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const NeighborSpan nbrs = g.neighbors(u);
    for (NodeId w : nbrs) ++mark[w];
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId v = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == v) ++run;
      i += run;
      if (!ranks_above(u, v)) continue;  // counted at v; loops never count
      std::int64_t shared = 0;
      for (NodeId w : g.neighbors(v)) {
        if (w != u && w != v) shared += mark[w];
      }
      if (static_cast<std::size_t>(shared) >= histogram.size()) {
        histogram.resize(shared + 1, 0);
      }
      const auto multiplicity = static_cast<std::int64_t>(run);
      histogram[shared] += multiplicity;
      t[u] += multiplicity * shared;
      t[v] += multiplicity * shared;
    }
    for (NodeId w : nbrs) mark[w] = 0;
  }
  for (std::int64_t& tv : t) tv /= 2;
  return counts;
}

std::vector<std::int64_t> CountTrianglesPerNode(const CsrGraph& g) {
  return CountSharedPartners(g).triangles;
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
