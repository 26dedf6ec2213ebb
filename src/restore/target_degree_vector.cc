#include "restore/target_degree_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/fenwick.h"

namespace sgr {

namespace {

/// Nearest integer to `a` (round half away from zero), as NearInt in the
/// paper.
std::int64_t NearInt(double a) { return std::llround(a); }

/// Initialization step of Section IV-B: n*(k) = max(NearInt(n̂ P̂(k)), 1)
/// where P̂(k) > 0, else 0.
DegreeVector InitializeDegreeVector(const LocalEstimates& est,
                                    std::uint32_t k_star_max) {
  DegreeVector n_star(k_star_max + 1, 0);
  for (std::uint32_t k = 1; k <= k_star_max; ++k) {
    const double p = k < est.degree_dist.size() ? est.degree_dist[k] : 0.0;
    if (p > 0.0) {
      n_star[k] = std::max<std::int64_t>(NearInt(est.num_nodes * p), 1);
    }
  }
  return n_star;
}

/// Adjustment step (Algorithm 1): if the degree sum is odd, bump n*(k) for
/// the odd degree k with the smallest error increase Δ+(k) (ties: smallest
/// k; all-infinite ties: smallest odd degree, i.e. k = 1).
void AdjustParity(const LocalEstimates& est, DegreeVector& n_star) {
  if (DegreeVectorTotalDegree(n_star) % 2 == 0) return;
  const std::uint32_t k_star_max =
      static_cast<std::uint32_t>(n_star.size() - 1);
  std::uint32_t best_k = 1;
  double best_delta = std::numeric_limits<double>::infinity();
  for (std::uint32_t k = 1; k <= k_star_max; k += 2) {
    const double delta = DegreeDeltaPlus(est, k, n_star[k]);
    if (delta < best_delta) {
      best_delta = delta;
      best_k = k;
    }
  }
  if (best_k >= n_star.size()) n_star.resize(best_k + 1, 0);
  ++n_star[best_k];
}

}  // namespace

double DegreeDeltaPlus(const LocalEstimates& est, std::uint32_t k,
                       std::int64_t current) {
  const double estimate = est.EstimatedNodeCount(k);
  if (estimate <= 0.0) return std::numeric_limits<double>::infinity();
  const double cur = static_cast<double>(current);
  return (std::abs(estimate - (cur + 1.0)) - std::abs(estimate - cur)) /
         estimate;
}

TargetDegreeVectorResult BuildTargetDegreeVectorFromEstimates(
    const LocalEstimates& est) {
  TargetDegreeVectorResult result;
  result.k_star_max = est.MaxDegreeWithMass();
  result.n_star = InitializeDegreeVector(est, result.k_star_max);
  AdjustParity(est, result.n_star);
  result.k_star_max = static_cast<std::uint32_t>(result.n_star.size() - 1);
  return result;
}

TargetDegreeVectorResult BuildTargetDegreeVector(const Subgraph& sub,
                                                 const LocalEstimates& est,
                                                 Rng& rng) {
  TargetDegreeVectorResult result;
  const Graph& g_sub = sub.graph;

  // Target maximum degree: the larger of the estimated maximum and the
  // subgraph maximum (queried-node degrees are exact; Lemma 1).
  result.k_star_max = std::max(
      est.MaxDegreeWithMass(), static_cast<std::uint32_t>(g_sub.MaxDegree()));

  // Initialization + first parity adjustment.
  result.n_star = InitializeDegreeVector(est, result.k_star_max);
  AdjustParity(est, result.n_star);

  // --- Modification step (Algorithm 2). ---
  DegreeVector& n_star = result.n_star;
  const std::uint32_t k_max = result.k_star_max;
  std::vector<std::uint32_t>& d_star = result.subgraph_target_degrees;
  d_star.assign(g_sub.NumNodes(), 0);

  // Queried nodes: the subgraph degree is the true degree (lines 2-3).
  DegreeVector n_prime(k_max + 1, 0);
  for (NodeId v = 0; v < g_sub.NumNodes(); ++v) {
    if (sub.IsQueried(v)) {
      d_star[v] = static_cast<std::uint32_t>(g_sub.Degree(v));
      ++n_prime[d_star[v]];
    }
  }
  // Raise n*(k) to n'(k) where needed (lines 5-6, condition DV-3).
  for (std::uint32_t k = 0; k <= k_max; ++k) {
    n_star[k] = std::max(n_star[k], n_prime[k]);
  }

  // Free capacity per degree class, kept in a Fenwick tree so that a
  // uniform draw from the multiset Dseq(i) (degree k repeated
  // n*(k) - n'(k) times over k in [d'_i, k*_max]) costs O(log k*_max).
  FenwickTree capacity(k_max + 1);
  for (std::uint32_t k = 0; k <= k_max; ++k) {
    capacity.Add(k, n_star[k] - n_prime[k]);
  }

  // Visible nodes in decreasing order of subgraph degree (lines 7-15).
  std::vector<NodeId> visible;
  for (NodeId v = 0; v < g_sub.NumNodes(); ++v) {
    if (!sub.IsQueried(v)) visible.push_back(v);
  }
  std::sort(visible.begin(), visible.end(), [&g_sub](NodeId a, NodeId b) {
    if (g_sub.Degree(a) != g_sub.Degree(b)) {
      return g_sub.Degree(a) > g_sub.Degree(b);
    }
    return a < b;
  });

  for (NodeId v : visible) {
    const auto d_sub = static_cast<std::uint32_t>(g_sub.Degree(v));
    std::uint32_t chosen = 0;
    const std::int64_t available = capacity.RangeSum(d_sub, k_max);
    if (available > 0) {
      // Uniform draw from Dseq(i).
      const std::int64_t below =
          d_sub == 0 ? 0 : capacity.PrefixSum(d_sub - 1);
      const std::int64_t target =
          below + static_cast<std::int64_t>(
                      rng.NextIndex(static_cast<std::size_t>(available)));
      chosen = static_cast<std::uint32_t>(capacity.FindByPrefix(target));
      assert(chosen >= d_sub && chosen <= k_max);
      // Assign: n'(k)++ consumes one capacity slot.
      capacity.Add(chosen, -1);
      ++n_prime[chosen];
    } else {
      // Dseq empty: choose k in [d'_i, k*_max] minimizing Δ+(k), smallest
      // on ties (lines 11-12); n*(k) grows together with n'(k).
      double best_delta = std::numeric_limits<double>::infinity();
      std::uint32_t best_k = d_sub;
      for (std::uint32_t k = d_sub; k <= k_max; ++k) {
        const double delta = DegreeDeltaPlus(est, k, n_star[k]);
        if (delta < best_delta) {
          best_delta = delta;
          best_k = k;
        }
      }
      chosen = best_k;
      ++n_prime[chosen];
      ++n_star[chosen];  // capacity stays zero: both n' and n* grew
    }
    d_star[v] = chosen;
  }

  // The modification may have broken DV-2; re-adjust (Section IV-B notes
  // the re-run preserves DV-1 and DV-3 since it only increases entries).
  AdjustParity(est, n_star);

  assert(SatisfiesDv1(n_star));
  assert(SatisfiesDv2(n_star));
  return result;
}

}  // namespace sgr
