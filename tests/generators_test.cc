#include "graph/generators.h"

#include <gtest/gtest.h>

#include "graph/components.h"

namespace sgr {
namespace {

TEST(GeneratorsTest, ErdosRenyiHasExactEdgeCount) {
  Rng rng(1);
  const CsrGraph g(GenerateErdosRenyiGnm(50, 100, rng));
  EXPECT_EQ(g.NumNodes(), 50u);
  EXPECT_EQ(g.NumEdges(), 100u);
  EXPECT_TRUE(g.IsSimple());
}

TEST(GeneratorsTest, ErdosRenyiZeroEdges) {
  Rng rng(2);
  const CsrGraph g(GenerateErdosRenyiGnm(10, 0, rng));
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GeneratorsTest, BarabasiAlbertIsSimpleAndConnected) {
  Rng rng(3);
  const CsrGraph g(GenerateBarabasiAlbert(500, 3, rng));
  EXPECT_EQ(g.NumNodes(), 500u);
  EXPECT_TRUE(g.IsSimple());
  EXPECT_TRUE(IsConnected(g));
  // Each non-seed node adds exactly 3 edges; the seed clique adds 6.
  EXPECT_EQ(g.NumEdges(), 6u + (500u - 4u) * 3u);
}

TEST(GeneratorsTest, BarabasiAlbertMinimumDegree) {
  Rng rng(4);
  const CsrGraph g(GenerateBarabasiAlbert(300, 2, rng));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_GE(g.Degree(v), 2u) << "node " << v;
  }
}

TEST(GeneratorsTest, PowerlawClusterHasHigherClusteringThanBa) {
  Rng rng1(5);
  Rng rng2(5);
  const CsrGraph ba(GenerateBarabasiAlbert(2000, 4, rng1));
  const CsrGraph hk(GeneratePowerlawCluster(2000, 4, 0.6, rng2));
  auto global_clustering = [](const CsrGraph& g) {
    // Quick transitivity proxy via degree-dependent clustering weights.
    double total = 0.0;
    std::size_t count = 0;
    // (lazy: reuse analysis would create a dependency cycle in this test's
    // includes; a rough count of closed wedges suffices)
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const NeighborSpan nbrs = g.neighbors(v);
      if (nbrs.size() < 2) continue;
      std::size_t closed = 0;
      std::size_t wedges = 0;
      for (std::size_t i = 0; i < nbrs.size() && i < 10; ++i) {
        for (std::size_t j = i + 1; j < nbrs.size() && j < 10; ++j) {
          ++wedges;
          if (g.HasEdge(nbrs[i], nbrs[j])) ++closed;
        }
      }
      if (wedges > 0) {
        total += static_cast<double>(closed) / static_cast<double>(wedges);
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_GT(global_clustering(hk), 2.0 * global_clustering(ba));
}

TEST(GeneratorsTest, PowerlawClusterConnectedSimple) {
  Rng rng(6);
  const CsrGraph g(GeneratePowerlawCluster(1000, 5, 0.4, rng));
  EXPECT_TRUE(g.IsSimple());
  EXPECT_TRUE(IsConnected(g));
}

TEST(GeneratorsTest, PowerlawClusterHeavyTail) {
  Rng rng(7);
  const CsrGraph g(GeneratePowerlawCluster(3000, 4, 0.3, rng));
  // A heavy-tailed graph has a hub far above the average degree.
  EXPECT_GT(g.MaxDegree(), 8 * static_cast<std::size_t>(g.AverageDegree()));
}

TEST(GeneratorsTest, SocialGraphHasPeripheryAndCore) {
  Rng rng(77);
  const CsrGraph g(GenerateSocialGraph(3000, 5, 0.3, 0.4, rng));
  EXPECT_EQ(g.NumNodes(), 3000u);
  EXPECT_TRUE(g.IsSimple());
  EXPECT_TRUE(IsConnected(g));
  // The fringe produces a real low-degree periphery (like actual social
  // graphs), while the core keeps heavy-tailed hubs.
  std::size_t low = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) <= 2) ++low;
  }
  EXPECT_GT(low, g.NumNodes() / 5);
  EXPECT_GT(g.MaxDegree(), 20 * 5u);
}

TEST(GeneratorsTest, SocialGraphZeroFringeIsPureHolmeKim) {
  Rng rng1(78);
  Rng rng2(78);
  const Graph a = GenerateSocialGraph(500, 4, 0.3, 0.0, rng1);
  const Graph b = GeneratePowerlawCluster(500, 4, 0.3, rng2);
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
}

TEST(GeneratorsTest, WattsStrogatzDegreeSum) {
  Rng rng(8);
  const CsrGraph g(GenerateWattsStrogatz(200, 6, 0.1, rng));
  EXPECT_EQ(g.NumNodes(), 200u);
  EXPECT_TRUE(g.IsSimple());
  // Rewiring keeps the edge count at most n*k/2 (saturated rewires fall
  // back, so the count is exact).
  EXPECT_EQ(g.NumEdges(), 200u * 6u / 2u);
}

TEST(GeneratorsTest, CommunityGraphCoversAllNodes) {
  Rng rng(9);
  const CsrGraph g(GenerateCommunityGraph(600, 3, 3, 0.3, 30, rng));
  EXPECT_EQ(g.NumNodes(), 600u);
  EXPECT_TRUE(g.IsSimple());
  // With bridges the whole graph is (almost surely) connected.
  EXPECT_EQ(CountComponents(g), 1u);
}

TEST(GeneratorsTest, FixtureGraphs) {
  const Graph complete = GenerateComplete(5);
  EXPECT_EQ(complete.NumEdges(), 10u);
  EXPECT_EQ(complete.MaxDegree(), 4u);

  const Graph cycle = GenerateCycle(6);
  EXPECT_EQ(cycle.NumEdges(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(cycle.Degree(v), 2u);

  const Graph star = GenerateStar(7);
  EXPECT_EQ(star.Degree(0), 6u);
  EXPECT_EQ(star.NumEdges(), 6u);

  const Graph path = GeneratePath(4);
  EXPECT_EQ(path.NumEdges(), 3u);
  EXPECT_EQ(path.Degree(0), 1u);
  EXPECT_EQ(path.Degree(1), 2u);
}

class GeneratorSweepTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(GeneratorSweepTest, PowerlawClusterInvariants) {
  const auto [n, m] = GetParam();
  Rng rng(n * 31 + m);
  const CsrGraph g(GeneratePowerlawCluster(n, m, 0.5, rng));
  EXPECT_EQ(g.NumNodes(), n);
  EXPECT_TRUE(g.IsSimple());
  EXPECT_TRUE(IsConnected(g));
  for (NodeId v = 0; v < g.NumNodes(); ++v) EXPECT_GE(g.Degree(v), m);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorSweepTest,
    ::testing::Combine(::testing::Values(50, 200, 1000),
                       ::testing::Values(2, 3, 5)));

}  // namespace
}  // namespace sgr
