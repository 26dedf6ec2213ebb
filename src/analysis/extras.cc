#include "analysis/extras.h"

#include <algorithm>
#include <cmath>

#include "dk/dk_extract.h"
#include "graph/components.h"

namespace sgr {

double DegreeAssortativity(const CsrGraph& g) {
  if (g.NumEdges() < 2) return 0.0;
  // Newman (2002): correlate the endpoint degrees j, k over edges, each
  // undirected edge taken in both orientations. An edge is two neighbor
  // entries (a loop: two entries at its node), so the per-edge sums are
  // half the per-entry ones: Σ jk = ½ Σ_u d_u Σ_{w∈N(u)} d_w,
  // Σ (j+k)/2 = ½ Σ_u d_u², Σ (j²+k²)/2 = ½ Σ_u d_u³.
  double sum_prod = 0.0;
  double sum_half = 0.0;
  double sum_half_sq = 0.0;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const double j = static_cast<double>(g.Degree(u));
    double neighbor_degrees = 0.0;
    for (NodeId w : g.neighbors(u)) {
      neighbor_degrees += static_cast<double>(g.Degree(w));
    }
    sum_prod += 0.5 * j * neighbor_degrees;
    sum_half += 0.5 * j * j;
    sum_half_sq += 0.5 * j * j * j;
  }
  const double inv_m = 1.0 / static_cast<double>(g.NumEdges());
  const double mean = inv_m * sum_half;
  const double numerator = inv_m * sum_prod - mean * mean;
  const double denominator = inv_m * sum_half_sq - mean * mean;
  if (denominator == 0.0) return 0.0;
  return numerator / denominator;
}

std::vector<std::size_t> CoreNumbers(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  std::vector<std::size_t> degree(n);
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = g.Degree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort nodes by degree (Batagelj-Zaveršnik).
  std::vector<std::size_t> bin(max_degree + 2, 0);
  for (NodeId v = 0; v < n; ++v) ++bin[degree[v]];
  std::size_t start = 0;
  for (std::size_t d = 0; d <= max_degree; ++d) {
    const std::size_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<NodeId> sorted(n);
  std::vector<std::size_t> position(n);
  {
    std::vector<std::size_t> cursor(bin.begin(), bin.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      sorted[position[v]] = v;
      ++cursor[degree[v]];
    }
  }
  std::vector<std::size_t> core(degree);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = sorted[i];
    for (NodeId w : g.neighbors(v)) {
      if (core[w] > core[v]) {
        // Move w one bucket down: swap it with the first node of its
        // current bucket, then shift the bucket boundary.
        const std::size_t dw = core[w];
        const std::size_t pw = position[w];
        const std::size_t pfirst = bin[dw];
        const NodeId first = sorted[pfirst];
        if (w != first) {
          std::swap(sorted[pw], sorted[pfirst]);
          position[w] = pfirst;
          position[first] = pw;
        }
        ++bin[dw];
        --core[w];
      }
    }
  }
  return core;
}

std::size_t Degeneracy(const CsrGraph& g) {
  std::size_t best = 0;
  for (std::size_t c : CoreNumbers(g)) best = std::max(best, c);
  return best;
}

double PeripheryShare(const CsrGraph& g, std::size_t threshold) {
  if (g.NumNodes() == 0) return 0.0;
  const DegreeVector dv = ExtractDegreeVector(g);
  double low = 0.0;
  for (std::size_t k = 0; k <= threshold && k < dv.size(); ++k) {
    low += static_cast<double>(dv[k]);
  }
  return low / static_cast<double>(g.NumNodes());
}

std::vector<std::size_t> ComponentSizes(const CsrGraph& g) {
  ComponentsResult comps = ConnectedComponents(g);
  std::sort(comps.sizes.begin(), comps.sizes.end(),
            std::greater<std::size_t>());
  return comps.sizes;
}

}  // namespace sgr
