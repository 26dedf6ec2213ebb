#include "graph/components.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace sgr {
namespace {

TEST(ComponentsTest, SingleComponent) {
  const Graph g = GenerateCycle(5);
  const ComponentsResult r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 1u);
  EXPECT_EQ(r.sizes[0], 5u);
  EXPECT_TRUE(IsConnected(g));
}

TEST(ComponentsTest, DisconnectedPieces) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  // node 5 isolated
  const ComponentsResult r = ConnectedComponents(g);
  EXPECT_EQ(r.sizes.size(), 3u);
  EXPECT_EQ(CountComponents(g), 3u);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_EQ(r.sizes[r.largest], 3u);
}

TEST(ComponentsTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(CountComponents(g), 0u);
  EXPECT_FALSE(IsConnected(g));
  const CsrGraph lcc = PreprocessDataset(CsrGraph(g));
  EXPECT_EQ(lcc.NumNodes(), 0u);
}

TEST(ComponentsTest, LargestComponentExtraction) {
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(5, 6);
  const CsrGraph lcc = PreprocessDataset(CsrGraph(g));
  EXPECT_EQ(lcc.NumNodes(), 3u);
  EXPECT_EQ(lcc.NumEdges(), 3u);
  EXPECT_TRUE(lcc.HasEdge(0, 1));
  EXPECT_TRUE(lcc.HasEdge(1, 2));
  EXPECT_TRUE(lcc.HasEdge(2, 0));
}

TEST(ComponentsTest, PreprocessMatchesPaperPipeline) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);  // parallel -> collapses
  g.AddEdge(1, 1);  // loop -> dropped
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);  // smaller component -> dropped
  g.AddEdge(5, 5);  // loop outside the kept component -> counted, dropped
  std::size_t loops = 0;
  std::size_t parallel = 0;
  const CsrGraph p = PreprocessDataset(CsrGraph(g), &loops, &parallel);
  EXPECT_TRUE(p.IsSimple());
  EXPECT_EQ(p.NumNodes(), 3u);
  EXPECT_EQ(p.NumEdges(), 2u);
  EXPECT_EQ(ConnectedComponents(p).sizes.size(), 1u);
  EXPECT_EQ(loops, 2u);
  EXPECT_EQ(parallel, 1u);
}

TEST(ComponentsTest, ComponentOfIsConsistentWithSizes) {
  Rng rng(11);
  Graph g = GenerateErdosRenyiGnm(60, 40, rng);  // likely disconnected
  const ComponentsResult r = ConnectedComponents(g);
  std::vector<std::size_t> recount(r.sizes.size(), 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_LT(r.component_of[v], r.sizes.size());
    ++recount[r.component_of[v]];
  }
  EXPECT_EQ(recount, r.sizes);
}

TEST(ComponentsTest, SnapshotOverloadMatchesGraphOverload) {
  // Components are numbered by their smallest node, so neighbor order
  // (sorted in the snapshot, insertion order in the Graph) cannot change
  // the result.
  Rng rng(12);
  const Graph g = GenerateErdosRenyiGnm(80, 60, rng);
  const ComponentsResult expected = ConnectedComponents(g);
  const ComponentsResult r = ConnectedComponents(CsrGraph(g));
  EXPECT_EQ(r.component_of, expected.component_of);
  EXPECT_EQ(r.sizes, expected.sizes);
  EXPECT_EQ(r.largest, expected.largest);
}

}  // namespace
}  // namespace sgr
