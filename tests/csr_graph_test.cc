#include "graph/csr_graph.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// A multigraph exercising every convention: loops, parallel edges,
/// isolated nodes.
Graph MessyMultigraph() {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // parallel edge, reversed orientation
  g.AddEdge(1, 2);
  g.AddEdge(2, 2);  // loop
  g.AddEdge(2, 2);  // second loop at the same node
  g.AddEdge(3, 0);
  // node 4 isolated, node 5 only a loop
  g.AddEdge(5, 5);
  return g;
}

/// Random multigraph: `num_edges` endpoints drawn uniformly (loops and
/// parallel edges arise naturally).
Graph RandomMultigraph(std::size_t num_nodes, std::size_t num_edges,
                       Rng& rng) {
  Graph g(num_nodes);
  for (std::size_t e = 0; e < num_edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.NextIndex(num_nodes)),
              static_cast<NodeId>(rng.NextIndex(num_nodes)));
  }
  return g;
}

/// Naive reference: the dense multiplicity matrix A of g's edge array
/// (A_vv is twice the loop count), read row by row.
std::vector<std::vector<std::size_t>> DenseMultiplicity(const Graph& g) {
  std::vector<std::vector<std::size_t>> a(
      g.NumNodes(), std::vector<std::size_t>(g.NumNodes(), 0));
  for (const Edge& e : g.edges()) {
    ++a[e.u][e.v];
    ++a[e.v][e.u];
  }
  return a;
}

void ExpectParity(const Graph& g, const CsrGraph& csr) {
  const std::vector<std::vector<std::size_t>> a = DenseMultiplicity(g);
  ASSERT_EQ(csr.NumNodes(), g.NumNodes());
  EXPECT_EQ(csr.NumEdges(), g.NumEdges());
  EXPECT_EQ(csr.TotalDegree(), g.TotalDegree());
  EXPECT_EQ(csr.MaxDegree(), g.MaxDegree());
  EXPECT_DOUBLE_EQ(csr.AverageDegree(), g.AverageDegree());
  bool simple = true;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    // Row v lists each neighbor w, ascending, A_vw times.
    std::vector<NodeId> expected;
    for (NodeId w = 0; w < g.NumNodes(); ++w) {
      expected.insert(expected.end(), a[v][w], w);
      if (a[v][w] > (v == w ? 0u : 1u)) simple = false;
    }
    ASSERT_EQ(g.Degree(v), expected.size()) << "v=" << v;
    ASSERT_EQ(csr.Degree(v), expected.size()) << "v=" << v;
    const NeighborSpan nbrs = csr.neighbors(v);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), nbrs.begin(),
                           nbrs.end()))
        << "v=" << v;
  }
  EXPECT_EQ(csr.IsSimple(), simple);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(csr.CountEdges(u, v), a[u][v]) << "u=" << u << " v=" << v;
      EXPECT_EQ(csr.HasEdge(u, v), a[u][v] > 0);
    }
  }
}

TEST(CsrGraphTest, EmptyGraph) {
  const CsrGraph csr((Graph()));
  EXPECT_EQ(csr.NumNodes(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
  EXPECT_EQ(csr.MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(csr.AverageDegree(), 0.0);
  EXPECT_TRUE(csr.IsSimple());
}

TEST(CsrGraphTest, MessyMultigraphParity) {
  const Graph g = MessyMultigraph();
  const CsrGraph csr(g);
  ExpectParity(g, csr);
  // Spot checks of the conventions.
  EXPECT_EQ(csr.Degree(2), 5u);           // 1 plain edge + 2 loops * 2
  EXPECT_EQ(csr.CountEdges(2, 2), 4u);    // A_vv = 2 * loops
  EXPECT_EQ(csr.CountEdges(0, 1), 2u);    // parallel edges
  EXPECT_EQ(csr.Degree(4), 0u);
  EXPECT_FALSE(csr.IsSimple());
}

TEST(CsrGraphTest, RandomMultigraphParity) {
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    const Graph g = RandomMultigraph(40, 120, rng);
    ExpectParity(g, CsrGraph(g));
  }
}

TEST(CsrGraphTest, RandomMultigraphParityUnderReplaceEdge) {
  // Rows come from the edge array alone, so they must follow every
  // ReplaceEdge: loops made and unmade, parallel bundles grown and split.
  Rng rng(78);
  for (int round = 0; round < 3; ++round) {
    Graph g = RandomMultigraph(30, 90, rng);
    ExpectParity(g, CsrGraph(g));
    for (int step = 0; step < 60; ++step) {
      g.ReplaceEdge(rng.NextIndex(g.NumEdges()),
                    static_cast<NodeId>(rng.NextIndex(g.NumNodes())),
                    static_cast<NodeId>(rng.NextIndex(g.NumNodes())));
      if (step % 10 == 9) ExpectParity(g, CsrGraph(g));
    }
  }
}

TEST(CsrGraphTest, SimpleGeneratedGraphParity) {
  Rng rng(5);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const CsrGraph csr(g);
  ExpectParity(g, csr);
  EXPECT_TRUE(csr.IsSimple());
}

TEST(CsrGraphTest, FromAdjacencyUnsortedInput) {
  // Path 0-1-2 plus a loop at 2, given with unsorted neighbor ranges.
  std::vector<std::size_t> offsets = {0, 1, 3, 6};
  std::vector<NodeId> neighbors = {1, 2, 0, 2, 2, 1};
  const CsrGraph csr =
      CsrGraph::FromAdjacency(std::move(offsets), std::move(neighbors));
  EXPECT_EQ(csr.NumNodes(), 3u);
  EXPECT_EQ(csr.NumEdges(), 3u);  // 0-1, 1-2, loop at 2
  EXPECT_EQ(csr.Degree(2), 3u);
  EXPECT_EQ(csr.CountEdges(2, 2), 2u);
  EXPECT_EQ(csr.CountEdges(1, 2), 1u);
  EXPECT_FALSE(csr.IsSimple());
  const NeighborSpan nbrs = csr.neighbors(2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

}  // namespace
}  // namespace sgr
