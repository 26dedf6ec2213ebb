// Release-mode edge-case sweep of all seven crawlers against degenerate
// oracles: isolated-node seeds, empty neighborhoods, disconnected
// graphs, an adversarial oracle that fails every query, and a spent API
// budget. The contract under test is purely defensive — no crash, no
// hang, no budget overrun — because the assert-only guards these paths
// used to rely on compile out under NDEBUG.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/frontier.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/non_backtracking.h"
#include "sampling/perturbed_oracle.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"

#include "sample_helpers.h"

namespace sgr {
namespace {

/// Number of nodes whose query actually answered. BFS, snowball, and
/// forest fire record nodes that answered nothing with an empty neighbor
/// list (the query was spent), so NumQueried() alone can exceed an API
/// budget; the information the crawl extracted cannot.
std::size_t InformativeNodes(const SamplingList& list) {
  std::size_t n = 0;
  for (std::uint32_t c = 0; c < list.NumQueried(); ++c) {
    if (list.Degree(c) > 0) ++n;
  }
  return n;
}

/// Two triangles (0-1-2 and 3-4-5) plus an isolated node 6: disconnected
/// components AND an empty neighborhood in one graph.
Graph DisconnectedGraph() {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  return g;
}

/// Runs every crawler once against `oracle` from `seed`, with walks
/// bounded by max_steps (their documented safety valve — a degenerate
/// oracle can make the queried-node target unreachable). Returns the
/// sampling lists for caller-side assertions; the real test is that this
/// function returns at all.
std::vector<SamplingList> CrawlAll(QueryOracle& oracle, NodeId seed,
                                   std::size_t target,
                                   std::uint64_t rng_seed) {
  constexpr std::size_t kMaxSteps = 10000;
  std::vector<SamplingList> lists;
  Rng rng(rng_seed);
  lists.push_back(RandomWalkSample(oracle, seed, target, rng, kMaxSteps));
  lists.push_back(
      NonBacktrackingWalkSample(oracle, seed, target, rng, kMaxSteps));
  lists.push_back(
      MetropolisHastingsWalkSample(oracle, seed, target, rng, kMaxSteps));
  lists.push_back(FrontierSample(oracle, {seed}, target, rng, kMaxSteps));
  lists.push_back(BfsSample(oracle, seed, target));
  lists.push_back(SnowballSample(oracle, seed, target, 50, rng));
  lists.push_back(ForestFireSample(oracle, seed, target, 0.7, rng));
  return lists;
}

TEST(DegenerateOracleTest, IsolatedSeedTerminatesEveryCrawler) {
  const CsrGraph g(DisconnectedGraph());
  QueryOracle oracle(g);
  const auto lists = CrawlAll(oracle, /*seed=*/6, /*target=*/5, 1);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    // Walk crawlers record nothing (a seed with no neighbors cannot start
    // a walk); the non-walk crawlers record at most the isolated seed
    // itself with an empty neighbor list.
    EXPECT_LE(lists[i].NumQueried(), 1u) << "crawler " << i;
  }
}

TEST(DegenerateOracleTest, DisconnectedGraphCannotOverrunItsComponent) {
  const CsrGraph g(DisconnectedGraph());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    QueryOracle oracle(g);
    // Target 6 exceeds the seed component's 3 nodes; every crawler must
    // stop at the component boundary instead of hanging or crashing.
    const auto lists = CrawlAll(oracle, /*seed=*/0, /*target=*/6, seed);
    for (std::size_t i = 0; i < lists.size(); ++i) {
      EXPECT_LE(lists[i].NumQueried(), 3u) << "crawler " << i;
      for (const NodeId v : Visits(lists[i])) {
        EXPECT_LT(v, 3u) << "crawler " << i << " escaped its component";
      }
    }
  }
}

TEST(DegenerateOracleTest, TotalFailureOracleTerminatesEveryCrawler) {
  Rng gen(9);
  const CsrGraph g(GeneratePowerlawCluster(200, 3, 0.4, gen));
  CrawlNoise noise;
  noise.failure = 1.0;  // every account is suspended
  PerturbedOracle oracle(g, noise, 77);
  const auto lists = CrawlAll(oracle, /*seed=*/0, /*target=*/50, 2);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_LE(lists[i].NumQueried(), 1u) << "crawler " << i;
  }
}

TEST(DegenerateOracleTest, AllEdgesHiddenTerminatesEveryCrawler) {
  Rng gen(10);
  const CsrGraph g(GeneratePowerlawCluster(200, 3, 0.4, gen));
  CrawlNoise noise;
  noise.hidden_edges = 1.0;  // every query answers, but lists nothing
  PerturbedOracle oracle(g, noise, 78);
  const auto lists = CrawlAll(oracle, /*seed=*/0, /*target=*/50, 3);
  for (std::size_t i = 0; i < lists.size(); ++i) {
    EXPECT_LE(lists[i].NumQueried(), 1u) << "crawler " << i;
  }
}

TEST(DegenerateOracleTest, SpentApiBudgetStopsEveryCrawler) {
  Rng gen(11);
  const CsrGraph g(GeneratePowerlawCluster(200, 3, 0.4, gen));
  for (std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{10}}) {
    CrawlNoise noise;
    noise.api_budget = budget;
    // A fresh oracle per crawler: the budget meters Query() calls, so a
    // shared one would let the first crawler starve the rest.
    constexpr std::size_t kMaxSteps = 10000;
    std::vector<SamplingList> lists;
    Rng rng(4);
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(RandomWalkSample(o, 0, 50, rng, kMaxSteps));
      EXPECT_LE(o.api_calls(),
                budget + kMaxConsecutiveFailedMoves + 1);
    }
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(
          NonBacktrackingWalkSample(o, 0, 50, rng, kMaxSteps));
    }
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(
          MetropolisHastingsWalkSample(o, 0, 50, rng, kMaxSteps));
    }
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(FrontierSample(o, {0}, 50, rng, kMaxSteps));
    }
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(BfsSample(o, 0, 50));
    }
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(SnowballSample(o, 0, 50, 50, rng));
    }
    {
      PerturbedOracle o(g, noise, 5);
      lists.push_back(ForestFireSample(o, 0, 50, 0.7, rng));
    }
    for (std::size_t i = 0; i < lists.size(); ++i) {
      // A crawl can never extract neighbor lists from more nodes than the
      // calls the platform answered. (NumQueried() may legitimately be
      // larger for the non-walk crawlers: spent queries are recorded with
      // empty lists.)
      EXPECT_LE(InformativeNodes(lists[i]),
                static_cast<std::size_t>(budget))
          << "crawler " << i << " at budget " << budget;
    }
  }
}

TEST(DegenerateOracleTest, ForestFireRejectsDegeneratePf) {
  const CsrGraph g(GenerateCycle(10));
  Rng rng(1);
  QueryOracle oracle(g);
  EXPECT_THROW(ForestFireSample(oracle, 0, 5, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(ForestFireSample(oracle, 0, 5, 1.5, rng),
               std::invalid_argument);
  EXPECT_THROW(ForestFireSample(oracle, 0, 5, -0.1, rng),
               std::invalid_argument);
  EXPECT_THROW(
      ForestFireSample(oracle, 0, 5,
                       std::numeric_limits<double>::quiet_NaN(), rng),
      std::invalid_argument);
  // pf = 0 stays valid: the fire spreads through revives alone.
  const SamplingList list = ForestFireSample(oracle, 0, 5, 0.0, rng);
  EXPECT_EQ(list.NumQueried(), 5u);
}

TEST(DegenerateOracleTest, FrontierRequiresSeeds) {
  const CsrGraph g(GenerateCycle(10));
  Rng rng(1);
  QueryOracle oracle(g);
  EXPECT_THROW(FrontierSample(oracle, {}, 5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace sgr
