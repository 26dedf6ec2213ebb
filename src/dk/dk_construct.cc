#include "dk/dk_construct.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgr {

namespace {

/// Prologue of Algorithm 5 (lines 1-12): validates the targets against
/// the base, adds the missing nodes (their degree sequence shuffled by
/// `rng`), and pools the free half-edges by target degree class.
struct AssemblyState {
  Graph result;
  std::vector<std::vector<NodeId>> stubs;
  std::size_t k_max = 0;
};

AssemblyState BuildAssemblyState(
    const Graph& base, const std::vector<std::uint32_t>& base_target_degrees,
    const DegreeVector& n_star, Rng& rng) {
  if (base_target_degrees.size() != base.NumNodes()) {
    throw std::logic_error(
        "ConstructPreservingTargets: one target degree per base node "
        "required");
  }
  AssemblyState state;
  state.k_max = n_star.empty() ? 0 : n_star.size() - 1;

  // n'(k): base nodes per target-degree class.
  DegreeVector n_prime(n_star.size(), 0);
  for (std::uint32_t d : base_target_degrees) {
    if (d > state.k_max) {
      throw std::logic_error(
          "ConstructPreservingTargets: base target degree exceeds k*_max");
    }
    ++n_prime[d];
  }

  state.result = base;
  const std::int64_t total_nodes = DegreeVectorNodes(n_star);
  const auto base_nodes = static_cast<std::int64_t>(base.NumNodes());
  if (total_nodes < base_nodes) {
    throw std::logic_error(
        "ConstructPreservingTargets: target node count below subgraph size "
        "(DV-3 violated)");
  }

  // Degree sequence for the added nodes: degree k appears n*(k) - n'(k)
  // times (Algorithm 5, lines 2-8).
  std::vector<std::uint32_t> added_degrees;
  added_degrees.reserve(static_cast<std::size_t>(total_nodes - base_nodes));
  for (std::size_t k = 0; k < n_star.size(); ++k) {
    const std::int64_t need = n_star[k] - n_prime[k];
    if (need < 0) {
      throw std::logic_error(
          "ConstructPreservingTargets: DV-3 violated at degree " +
          std::to_string(k));
    }
    for (std::int64_t c = 0; c < need; ++c) {
      added_degrees.push_back(static_cast<std::uint32_t>(k));
    }
  }
  std::shuffle(added_degrees.begin(), added_degrees.end(), rng.engine());

  // Attach half-edges (stubs): d*_i - d'_i per base node, d*_i per added
  // node, pooled by target degree (lines 9-12).
  state.stubs.assign(n_star.size(), {});
  for (NodeId v = 0; v < base.NumNodes(); ++v) {
    const std::uint32_t target = base_target_degrees[v];
    const std::size_t have = base.Degree(v);
    if (have > target) {
      throw std::logic_error(
          "ConstructPreservingTargets: base degree exceeds target degree");
    }
    for (std::size_t s = have; s < target; ++s) {
      state.stubs[target].push_back(v);
    }
  }
  for (std::uint32_t d : added_degrees) {
    const NodeId v = state.result.AddNode();
    for (std::uint32_t s = 0; s < d; ++s) state.stubs[d].push_back(v);
  }
  return state;
}

void CheckNoLeftoverStubs(const AssemblyState& state) {
  // Iterate the pools that exist: an empty n_star ({} targets — a legal
  // degenerate input that must yield an empty graph) has no pools at
  // all, while k_max is still 0.
  for (std::size_t k = 0; k < state.stubs.size(); ++k) {
    if (!state.stubs[k].empty()) {
      throw std::logic_error(
          "ConstructPreservingTargets: leftover free half-edges at degree " +
          std::to_string(k) + " (JDM-3 violated)");
    }
  }
}

[[noreturn]] void ThrowStubExhausted() {
  throw std::logic_error(
      "ConstructPreservingTargets: stub pool exhausted (JDM-3 violated)");
}

/// Swap-with-back pop at `idx`.
NodeId PopAt(std::vector<NodeId>& pool, std::size_t idx) {
  const NodeId v = pool[idx];
  pool[idx] = pool.back();
  pool.pop_back();
  return v;
}

/// Wires the free half-edges class pair by class pair (Algorithm 5, lines
/// 13-16): every pair (k, k') with 1 <= k <= k' <= k_max, in ascending
/// order, copies m*(k,k') - m'(k,k') edges, each between two stubs popped
/// uniformly from the pools of k and k'. A pair outside both supports
/// needs no edge, so only the union of the two supports is walked.
void WireClassPairs(AssemblyState& state, const JointDegreeMatrix& m_star,
                    const JointDegreeMatrix& m_prime, Rng& rng) {
  for (std::uint32_t k = 1; k <= state.k_max; ++k) {
    // Merge row k of both matrices: each k' in either support, ascending.
    const std::vector<JdmEntry>& target = m_star.Row(k);
    const std::vector<JdmEntry>& base = m_prime.Row(k);
    std::size_t ti = 0;
    std::size_t bi = 0;
    while (ti < target.size() || bi < base.size()) {
      const std::uint32_t kp =
          bi == base.size() || (ti < target.size() &&
                                target[ti].k_prime < base[bi].k_prime)
              ? target[ti].k_prime
              : base[bi].k_prime;
      std::int64_t need = 0;
      if (ti < target.size() && target[ti].k_prime == kp) {
        need += target[ti++].count;
      }
      if (bi < base.size() && base[bi].k_prime == kp) {
        need -= base[bi++].count;
      }
      if (kp < k) continue;
      if (kp > state.k_max) break;
      if (need < 0) {
        throw std::logic_error(
            "ConstructPreservingTargets: JDM-4 violated at (" +
            std::to_string(k) + "," + std::to_string(kp) + ")");
      }
      if (need == 0) continue;
      obs::Span pair_span("assemble_pair", "assemble");
      obs::MetricAdd("assemble.pairs", 1);
      for (std::int64_t c = 0; c < need; ++c) {
        if (state.stubs[k].empty() || state.stubs[kp].empty() ||
            (k == kp && state.stubs[k].size() < 2)) {
          ThrowStubExhausted();
        }
        const NodeId a =
            PopAt(state.stubs[k], rng.NextIndex(state.stubs[k].size()));
        const NodeId b =
            PopAt(state.stubs[kp], rng.NextIndex(state.stubs[kp].size()));
        state.result.AddEdge(a, b);
      }
    }
  }
  CheckNoLeftoverStubs(state);
}

}  // namespace

JointDegreeMatrix SubgraphClassEdges(
    const Graph& base,
    const std::vector<std::uint32_t>& base_target_degrees) {
  JointDegreeMatrix m_prime;
  for (const Edge& e : base.edges()) {
    m_prime.AddSymmetric(base_target_degrees[e.u], base_target_degrees[e.v],
                         1);
  }
  return m_prime;
}

Graph ConstructPreservingTargets(
    const Graph& base, const std::vector<std::uint32_t>& base_target_degrees,
    const DegreeVector& n_star, const JointDegreeMatrix& m_star, Rng& rng) {
  AssemblyState state =
      BuildAssemblyState(base, base_target_degrees, n_star, rng);
  WireClassPairs(state, m_star, SubgraphClassEdges(base, base_target_degrees),
                 rng);
  return state.result;
}

Graph Construct2kGraph(const DegreeVector& n_star,
                       const JointDegreeMatrix& m_star, Rng& rng) {
  return ConstructPreservingTargets(Graph(), {}, n_star, m_star, rng);
}

Graph Construct1kGraph(const DegreeVector& n_star, Rng& rng) {
  if (DegreeVectorTotalDegree(n_star) % 2 != 0) {
    throw std::logic_error("Construct1kGraph: odd degree sum (DV-2)");
  }
  Graph g(static_cast<std::size_t>(DegreeVectorNodes(n_star)));
  std::vector<NodeId> stubs;
  stubs.reserve(
      static_cast<std::size_t>(DegreeVectorTotalDegree(n_star)));
  NodeId next = 0;
  for (std::size_t k = 0; k < n_star.size(); ++k) {
    for (std::int64_t c = 0; c < n_star[k]; ++c) {
      for (std::size_t s = 0; s < k; ++s) stubs.push_back(next);
      ++next;
    }
  }
  std::shuffle(stubs.begin(), stubs.end(), rng.engine());
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    g.AddEdge(stubs[i], stubs[i + 1]);
  }
  return g;
}

Graph Construct0kGraph(std::size_t num_nodes, std::size_t num_edges,
                       Rng& rng) {
  Graph g(num_nodes);
  for (std::size_t e = 0; e < num_edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.NextIndex(num_nodes)),
              static_cast<NodeId>(rng.NextIndex(num_nodes)));
  }
  return g;
}

}  // namespace sgr
