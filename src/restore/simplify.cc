#include "restore/simplify.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sgr {

namespace {

/// Sentinel key for self-loops in the offense census (sorts last).
constexpr std::uint64_t kLoopKey = ~std::uint64_t{0};

/// Exact offense census: loops, plus parallel surplus (bundle size - 1
/// per distinct node pair), counted over the sorted edge keys.
std::size_t CountOffense(const Graph& g) {
  const std::size_t m = g.NumEdges();
  std::vector<std::uint64_t> keys(m);
  for (std::size_t e = 0; e < m; ++e) {
    const Edge& edge = g.edge(e);
    if (edge.u == edge.v) {
      keys[e] = kLoopKey;
    } else {
      const auto [lo, hi] = std::minmax(edge.u, edge.v);
      keys[e] = (static_cast<std::uint64_t>(lo) << 32) | hi;
    }
  }
  std::sort(keys.begin(), keys.end());
  std::size_t loops = 0;
  std::size_t surplus = 0;
  for (std::size_t e = 0; e < m; ++e) {
    if (keys[e] == kLoopKey) {
      ++loops;
    } else if (e > 0 && keys[e] == keys[e - 1]) {
      ++surplus;
    }
  }
  return loops + surplus;
}

/// Offense of the two node pairs touched by a swap (loops count 1,
/// parallel bundles count size - 1).
std::size_t PairOffense(const Graph& g, NodeId a, NodeId b, NodeId c,
                        NodeId d) {
  std::size_t offense = 0;
  if (a == b) {
    offense += 1;
  } else if (g.CountEdges(a, b) > 1) {
    offense += g.CountEdges(a, b) - 1;
  }
  if (c == d) {
    offense += 1;
  } else if (g.CountEdges(c, d) > 1) {
    offense += g.CountEdges(c, d) - 1;
  }
  return offense;
}

}  // namespace

SimplifyStats SimplifyByRewiring(Graph& g,
                                 std::size_t num_protected_edges, Rng& rng,
                                 std::size_t max_rounds,
                                 std::size_t attempts_per_edge) {
  SimplifyStats stats;
  stats.offending_before = CountOffense(g);
  stats.offending_after = stats.offending_before;
  if (stats.offending_before == 0) return stats;
  if (g.NumEdges() - num_protected_edges < 2) return stats;

  for (std::size_t round = 0; round < max_rounds; ++round) {
    // Partner index: candidate edge ids bucketed by endpoint degree, so a
    // degree-matched partner is found directly instead of hoped for by
    // uniform sampling (hub degrees are rare; uniform draws would almost
    // never hit them).
    std::unordered_map<std::uint32_t, std::vector<EdgeId>> by_degree;
    for (EdgeId f = num_protected_edges; f < g.NumEdges(); ++f) {
      const Edge edge = g.edge(f);
      by_degree[static_cast<std::uint32_t>(g.Degree(edge.u))].push_back(f);
      if (edge.u != edge.v) {
        by_degree[static_cast<std::uint32_t>(g.Degree(edge.v))].push_back(
            f);
      }
    }

    bool progressed = false;
    for (EdgeId e = num_protected_edges; e < g.NumEdges(); ++e) {
      const Edge bad = g.edge(e);
      const bool is_loop = bad.u == bad.v;
      const bool is_parallel =
          !is_loop && g.CountEdges(bad.u, bad.v) > 1;
      if (!is_loop && !is_parallel) continue;

      // Degrees whose buckets can host a JDM-preserving partner.
      const std::array<std::uint32_t, 2> pivot_degrees = {
          static_cast<std::uint32_t>(g.Degree(bad.u)),
          static_cast<std::uint32_t>(g.Degree(bad.v))};

      bool fixed = false;
      for (std::size_t attempt = 0;
           attempt < attempts_per_edge && !fixed; ++attempt) {
        const std::uint32_t degree =
            pivot_degrees[rng.NextIndex(pivot_degrees.size())];
        auto bucket_it = by_degree.find(degree);
        if (bucket_it == by_degree.end() || bucket_it->second.empty()) {
          continue;
        }
        const EdgeId f =
            bucket_it->second[rng.NextIndex(bucket_it->second.size())];
        if (f == e) continue;
        const Edge other = g.edge(f);

        struct Orientation {
          NodeId i, j, a, b;
        };
        const std::array<Orientation, 4> all = {
            Orientation{bad.u, bad.v, other.u, other.v},
            Orientation{bad.u, bad.v, other.v, other.u},
            Orientation{bad.v, bad.u, other.u, other.v},
            Orientation{bad.v, bad.u, other.v, other.u}};
        for (const Orientation& o : all) {
          if (g.Degree(o.i) != g.Degree(o.a)) continue;
          if (o.i == o.a || o.j == o.b) continue;  // no-op swap
          const std::size_t before = PairOffense(g, o.i, o.j, o.a, o.b);
          // Apply, measure, revert if not a strict improvement.
          g.ReplaceEdge(e, o.i, o.b);
          g.ReplaceEdge(f, o.a, o.j);
          const std::size_t after = PairOffense(g, o.i, o.b, o.a, o.j);
          if (after < before) {
            ++stats.swaps;
            progressed = true;
            fixed = true;
            break;
          }
          g.ReplaceEdge(e, o.i, o.j);
          g.ReplaceEdge(f, o.a, o.b);
        }
      }
    }
    stats.offending_after = CountOffense(g);
    if (stats.offending_after == 0 || !progressed) break;
  }
  return stats;
}

}  // namespace sgr
