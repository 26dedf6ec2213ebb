#include "analysis/extras.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace sgr {
namespace {

TEST(ExtrasTest, AssortativityOfStarIsMinusOne) {
  // Every edge joins the hub (high degree) to a leaf (degree 1): perfect
  // disassortativity.
  EXPECT_NEAR(DegreeAssortativity(CsrGraph(GenerateStar(10))), -1.0, 1e-12);
}

TEST(ExtrasTest, AssortativityOfRegularGraphIsZeroByConvention) {
  // Zero degree variance: the coefficient is undefined; we return 0.
  EXPECT_DOUBLE_EQ(DegreeAssortativity(CsrGraph(GenerateCycle(10))), 0.0);
  EXPECT_DOUBLE_EQ(DegreeAssortativity(CsrGraph(GenerateComplete(6))), 0.0);
}

TEST(ExtrasTest, AssortativityBounds) {
  Rng rng(1);
  const CsrGraph g(GeneratePowerlawCluster(800, 3, 0.4, rng));
  const double r = DegreeAssortativity(g);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

TEST(ExtrasTest, CoreNumbersOfComplete) {
  const std::vector<std::size_t> core =
      CoreNumbers(CsrGraph(GenerateComplete(6)));
  for (std::size_t c : core) EXPECT_EQ(c, 5u);
  EXPECT_EQ(Degeneracy(CsrGraph(GenerateComplete(6))), 5u);
}

TEST(ExtrasTest, CoreNumbersOfStar) {
  const std::vector<std::size_t> core = CoreNumbers(CsrGraph(GenerateStar(8)));
  for (std::size_t c : core) EXPECT_EQ(c, 1u);
}

TEST(ExtrasTest, CoreNumbersOfCycleWithTail) {
  // Cycle of 4 with a pendant path: cycle nodes are 2-core, tail is
  // 1-core.
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  const std::vector<std::size_t> core = CoreNumbers(CsrGraph(g));
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 2u);
  EXPECT_EQ(core[4], 1u);
  EXPECT_EQ(core[5], 1u);
}

TEST(ExtrasTest, CoreNumbersNeverExceedDegree) {
  Rng rng(2);
  const CsrGraph g(GeneratePowerlawCluster(500, 3, 0.5, rng));
  const std::vector<std::size_t> core = CoreNumbers(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(core[v], g.Degree(v));
    EXPECT_GE(core[v], 3u);  // Holme-Kim minimum degree is m = 3
  }
}

TEST(ExtrasTest, PeripheryShareOfStar) {
  // 9 of 10 nodes have degree 1.
  EXPECT_DOUBLE_EQ(PeripheryShare(CsrGraph(GenerateStar(10))), 0.9);
  EXPECT_DOUBLE_EQ(PeripheryShare(CsrGraph(GenerateStar(10)), 0), 0.0);
}

TEST(ExtrasTest, ComponentSizesSortedDescending) {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddEdge(0, 0);  // a loop and a parallel edge join nothing new
  g.AddEdge(3, 4);
  const std::vector<std::size_t> sizes = ComponentSizes(CsrGraph(g));
  ASSERT_EQ(sizes.size(), 4u);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(sizes[0], 3u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[2], 1u);
  EXPECT_EQ(sizes[3], 1u);
}

}  // namespace
}  // namespace sgr
