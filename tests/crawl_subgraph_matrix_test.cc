// Cross-crawler subgraph invariants: every crawler's sampling list must
// produce a valid induced subgraph with the same structural guarantees
// (queried-degree exactness, edge membership, queried-endpoint coverage),
// regardless of the crawl order statistics.

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/frontier.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/non_backtracking.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "sampling/subgraph.h"

namespace sgr {
namespace {

enum class Crawler { kRw, kNbrw, kMhrw, kBfs, kSnowball, kFf, kFrontier };

SamplingList Crawl(Crawler crawler, const CsrGraph& g, std::size_t budget,
                   Rng& rng) {
  QueryOracle oracle(g);
  const NodeId seed = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
  switch (crawler) {
    case Crawler::kRw:
      return RandomWalkSample(oracle, seed, budget, rng);
    case Crawler::kNbrw:
      return NonBacktrackingWalkSample(oracle, seed, budget, rng);
    case Crawler::kMhrw:
      return MetropolisHastingsWalkSample(oracle, seed, budget, rng);
    case Crawler::kBfs:
      return BfsSample(oracle, seed, budget);
    case Crawler::kSnowball:
      return SnowballSample(oracle, seed, budget, 50, rng);
    case Crawler::kFf:
      return ForestFireSample(oracle, seed, budget, 0.7, rng);
    case Crawler::kFrontier:
      return FrontierSample(oracle, {seed, 0, 1}, budget, rng);
  }
  return {};
}

class CrawlerSubgraphTest
    : public ::testing::TestWithParam<std::tuple<Crawler, std::uint64_t>> {
};

TEST_P(CrawlerSubgraphTest, SubgraphInvariantsHold) {
  const auto [crawler, seed] = GetParam();
  Rng gen_rng(seed);
  const CsrGraph g(GenerateSocialGraph(600, 4, 0.4, 0.4, gen_rng));
  Rng rng(seed + 404);
  const SamplingList list = Crawl(crawler, g, 60, rng);
  ASSERT_GE(list.NumQueried(), 60u);

  const Subgraph sub = BuildSubgraph(list);
  // Every recorded neighbor list matches the oracle's graph.
  for (const auto& [v, nbrs] : list.neighbors) {
    EXPECT_EQ(nbrs.size(), g.Degree(v));
  }
  // Queried nodes keep exact degrees; visible nodes are bounded (Lemma 1).
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    const NodeId orig = sub.to_original[v];
    if (sub.is_queried[v]) {
      EXPECT_EQ(sub.graph.Degree(v), g.Degree(orig));
    } else {
      EXPECT_LE(sub.graph.Degree(v), g.Degree(orig));
      EXPECT_GE(sub.graph.Degree(v), 1u);
    }
  }
  // Edges exist in the original and touch a queried endpoint.
  for (const Edge& e : sub.graph.edges()) {
    EXPECT_TRUE(g.HasEdge(sub.to_original[e.u], sub.to_original[e.v]));
    EXPECT_TRUE(sub.is_queried[e.u] || sub.is_queried[e.v]);
  }
  EXPECT_TRUE(CsrGraph(sub.graph).IsSimple());
}

INSTANTIATE_TEST_SUITE_P(
    AllCrawlers, CrawlerSubgraphTest,
    ::testing::Combine(::testing::Values(Crawler::kRw, Crawler::kNbrw,
                                         Crawler::kMhrw, Crawler::kBfs,
                                         Crawler::kSnowball, Crawler::kFf,
                                         Crawler::kFrontier),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace sgr
