// Contract tests of the adversarial oracle (sampling/perturbed_oracle.h):
// every perturbation decision is a pure hash of (seed, ids), so answers
// are consistent under repetition, agree across both endpoints of an
// edge, and are independent of query order — and an inactive noise
// config is bit-for-bit the cooperative QueryOracle.

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sampling/perturbed_oracle.h"

namespace sgr {
namespace {

// Like QueryOracle, the perturbed oracle cannot be built from a temporary.
static_assert(std::is_constructible_v<PerturbedOracle, const CsrGraph&,
                                      const CrawlNoise&, std::uint64_t>);
static_assert(!std::is_constructible_v<PerturbedOracle, CsrGraph,
                                       const CrawlNoise&, std::uint64_t>);

Graph TestGraph() {
  Rng rng(42);
  return GeneratePowerlawCluster(300, 3, 0.4, rng);
}

std::vector<NodeId> Snapshot(NeighborSpan span) {
  return std::vector<NodeId>(span.begin(), span.end());
}

TEST(PerturbedOracleTest, InactiveNoiseMatchesCooperativeOracle) {
  const CsrGraph g(TestGraph());
  QueryOracle base(g);
  PerturbedOracle perturbed(g, CrawlNoise{}, 1234);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(Snapshot(base.Query(v)), Snapshot(perturbed.Query(v)))
        << "node " << v;
  }
  // The zero-noise fast path never touches the perturbation counters.
  EXPECT_EQ(perturbed.api_calls(), 0u);
  EXPECT_EQ(perturbed.failed_queries(), 0u);
  EXPECT_EQ(perturbed.suppressed_edges(), 0u);
  EXPECT_EQ(perturbed.unique_queries(), 50u);
}

TEST(PerturbedOracleTest, FailureIsPersistentPerNode) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.failure = 0.5;
  PerturbedOracle oracle(g, noise, 99);
  std::vector<bool> failed_first(100);
  for (NodeId v = 0; v < 100; ++v) {
    failed_first[v] = oracle.Query(v).empty();
  }
  std::size_t failures = 0;
  for (NodeId v = 0; v < 100; ++v) {
    // A suspended account stays suspended; a live one stays live.
    EXPECT_EQ(oracle.Query(v).empty(), failed_first[v]) << "node " << v;
    if (failed_first[v]) ++failures;
  }
  // At failure = 0.5 over 100 nodes, both outcomes must occur (each tail
  // has probability 2^-100).
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, 100u);
  EXPECT_EQ(oracle.failed_queries(), 2 * failures);
}

TEST(PerturbedOracleTest, NoiseFailsNodePredictsTheOracle) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.failure = 0.4;
  const std::uint64_t seed = 777;
  PerturbedOracle oracle(g, noise, seed);
  for (NodeId v = 0; v < 100; ++v) {
    EXPECT_EQ(oracle.Query(v).empty(), NoiseFailsNode(noise, seed, v))
        << "node " << v;
  }
}

TEST(PerturbedOracleTest, HiddenEdgesAgreeAcrossEndpoints) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.hidden_edges = 0.5;
  PerturbedOracle oracle(g, noise, 2024);
  std::size_t visible = 0, hidden = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::vector<NodeId> nbrs = Snapshot(oracle.Query(v));
    for (NodeId w : g.neighbors(v)) {
      const bool sees =
          std::find(nbrs.begin(), nbrs.end(), w) != nbrs.end();
      // The reverse direction must agree: the edge hashes on its
      // canonical endpoint pair, not on the queried side.
      const std::vector<NodeId> back = Snapshot(oracle.Query(w));
      const bool seen_back =
          std::find(back.begin(), back.end(), v) != back.end();
      EXPECT_EQ(sees, seen_back) << "edge " << v << "-" << w;
      (sees ? visible : hidden) += 1;
    }
    if (v >= 40) break;  // enough edges; the loop above is quadratic-ish
  }
  EXPECT_GT(visible, 0u);
  EXPECT_GT(hidden, 0u);
  EXPECT_GT(oracle.suppressed_edges(), 0u);
}

TEST(PerturbedOracleTest, HiddenEdgesAreIndependentOfQueryOrder) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.hidden_edges = 0.3;
  PerturbedOracle forward(g, noise, 5);
  PerturbedOracle backward(g, noise, 5);
  std::vector<std::vector<NodeId>> forward_answers(60);
  for (NodeId v = 0; v < 60; ++v) {
    forward_answers[v] = Snapshot(forward.Query(v));
  }
  for (NodeId v = 60; v-- > 0;) {
    EXPECT_EQ(Snapshot(backward.Query(v)), forward_answers[v])
        << "node " << v;
  }
}

TEST(PerturbedOracleTest, ChurnIsDeterministicInTheCallSequence) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.churn = 0.3;
  PerturbedOracle a(g, noise, 11);
  PerturbedOracle b(g, noise, 11);
  bool any_flicker = false;
  std::vector<NodeId> first;
  for (NodeId v = 0; v < 40; ++v) {
    // Same seed + same call sequence => identical answers, call by call.
    const std::vector<NodeId> answer = Snapshot(a.Query(v));
    EXPECT_EQ(answer, Snapshot(b.Query(v))) << "node " << v;
    if (v == 0) first = answer;
  }
  // Churn redraws per API call: the same node's answer may change
  // between calls (that is the point). Probe a few repeat calls.
  for (int i = 0; i < 20 && !any_flicker; ++i) {
    any_flicker = Snapshot(a.Query(0)) != first;
    (void)b.Query(0);
  }
  EXPECT_TRUE(any_flicker) << "churn 0.3 never changed an answer";
}

TEST(PerturbedOracleTest, ApiBudgetExhaustionAnswersEmpty) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.api_budget = 10;
  PerturbedOracle oracle(g, noise, 3);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_FALSE(oracle.Query(v).empty()) << "call " << v << " (in budget)";
  }
  EXPECT_TRUE(oracle.BudgetExhausted());
  for (NodeId v = 10; v < 20; ++v) {
    EXPECT_TRUE(oracle.Query(v).empty()) << "call " << v << " (spent)";
  }
  EXPECT_EQ(oracle.api_calls(), 20u);
  EXPECT_EQ(oracle.failed_queries(), 10u);
}

TEST(PerturbedOracleTest, SpanSurvivesOneSubsequentQuery) {
  const CsrGraph g(TestGraph());
  CrawlNoise noise;
  noise.hidden_edges = 0.2;  // force the scratch-backed filter path
  PerturbedOracle oracle(g, noise, 8);
  const NeighborSpan held = oracle.Query(0);
  const std::vector<NodeId> copy = Snapshot(held);
  // One more query lands in the other scratch slot; the held span must
  // still read the same data (the documented two-slot contract MHRW
  // relies on while it holds the current node across a proposal query).
  (void)oracle.Query(1);
  EXPECT_EQ(Snapshot(held), copy);
}

TEST(PerturbedOracleTest, RejectsOutOfRangeKnobs) {
  const CsrGraph g(GenerateCycle(10));
  const auto expect_throws = [&](CrawlNoise noise) {
    EXPECT_THROW(PerturbedOracle(g, noise, 1), std::invalid_argument);
  };
  CrawlNoise noise;
  noise.failure = 1.5;
  expect_throws(noise);
  noise.failure = -0.1;
  expect_throws(noise);
  noise = {};
  noise.hidden_edges = std::numeric_limits<double>::quiet_NaN();
  expect_throws(noise);
  noise = {};
  noise.churn = std::numeric_limits<double>::infinity();
  expect_throws(noise);
  // The full-range extremes are legal at the oracle level (the spec layer
  // caps at 0.9, the oracle itself accepts [0, 1]).
  noise = {};
  noise.failure = 1.0;
  PerturbedOracle all_fail(g, noise, 1);
  EXPECT_TRUE(all_fail.Query(0).empty());
}

}  // namespace
}  // namespace sgr
