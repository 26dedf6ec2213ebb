#include "graph/components.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <vector>

#include "graph/generators.h"

namespace sgr {
namespace {

TEST(ComponentsTest, SingleComponent) {
  const CsrGraph g(GenerateCycle(5));
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
  const CsrGraph csr(g);
  const ComponentsResult r = ConnectedComponents(csr);
  EXPECT_EQ(r.sizes.size(), 3u);
  EXPECT_EQ(CountComponents(csr), 3u);
  EXPECT_FALSE(IsConnected(csr));
  EXPECT_EQ(r.sizes[r.largest], 3u);
}

TEST(ComponentsTest, EmptyGraph) {
  const CsrGraph g((Graph()));
  EXPECT_EQ(CountComponents(g), 0u);
  EXPECT_FALSE(IsConnected(g));
  const CsrGraph lcc = PreprocessDataset(g);
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
  // Likely disconnected.
  const CsrGraph g(GenerateErdosRenyiGnm(60, 40, rng));
  const ComponentsResult r = ConnectedComponents(g);
  std::vector<std::size_t> recount(r.sizes.size(), 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_LT(r.component_of[v], r.sizes.size());
    ++recount[r.component_of[v]];
  }
  EXPECT_EQ(recount, r.sizes);
}

TEST(ComponentsTest, NumberedBySmallestNode) {
  // Reference: component c is the one whose smallest node is the c-th
  // smallest among all components' smallest nodes. Union-find over the
  // edge array gives each node's smallest component member.
  Rng rng(12);
  const Graph g = GenerateErdosRenyiGnm(80, 60, rng);
  std::vector<NodeId> root(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) root[v] = v;
  const auto find = [&](NodeId v) {
    while (root[v] != v) v = root[v] = root[root[v]];
    return v;
  };
  for (const Edge& e : g.edges()) {
    const NodeId a = find(e.u);
    const NodeId b = find(e.v);
    root[std::max(a, b)] = std::min(a, b);
  }
  std::vector<std::size_t> index(g.NumNodes(), 0);
  std::vector<std::size_t> sizes;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (find(v) == v) {
      index[v] = sizes.size();
      sizes.push_back(0);
    }
    ++sizes[index[find(v)]];
  }
  const ComponentsResult r = ConnectedComponents(CsrGraph(g));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(r.component_of[v], index[find(v)]) << "v=" << v;
  }
  EXPECT_EQ(r.sizes, sizes);
  EXPECT_EQ(r.sizes[r.largest],
            *std::max_element(sizes.begin(), sizes.end()));
}

}  // namespace
}  // namespace sgr
