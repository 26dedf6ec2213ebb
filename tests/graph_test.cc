#include "graph/graph.h"

#include <gtest/gtest.h>

namespace sgr {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.TotalDegree(), 0u);
  EXPECT_TRUE(g.edges().empty());
}

TEST(GraphTest, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.NumNodes(), 3u);
  const EdgeId e = g.AddEdge(0, 1);
  EXPECT_EQ(e, 0u);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 1u);
  EXPECT_EQ(g.edges()[1].u, 1u);
  EXPECT_EQ(g.edges()[1].v, 2u);
}

TEST(GraphTest, AddNodeReturnsDenseIds) {
  Graph g;
  EXPECT_EQ(g.AddNode(), 0u);
  EXPECT_EQ(g.AddNode(), 1u);
  g.AddNodes(3);
  EXPECT_EQ(g.NumNodes(), 5u);
  for (NodeId v = 0; v < g.NumNodes(); ++v) EXPECT_EQ(g.Degree(v), 0u);
}

TEST(GraphTest, SelfLoopCountsTwiceInDegree) {
  Graph g(2);
  g.AddEdge(0, 0);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.TotalDegree(), 2u);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(GraphTest, MultiEdgesAreCounted) {
  Graph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  // Endpoints are stored as given.
  EXPECT_EQ(g.edge(1).u, 1u);
  EXPECT_EQ(g.edge(1).v, 0u);
}

TEST(GraphTest, AverageDegreeMatchesHandshake) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 3 / 4);
  EXPECT_EQ(g.TotalDegree(), 2 * g.NumEdges());
}

TEST(GraphTest, LoopStaysOneEdgeOfDegreeTwo) {
  Graph g(1);
  const EdgeId e = g.AddEdge(0, 0);
  g.AddEdge(0, 0);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 4u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 0u);
}

TEST(GraphTest, ReplaceEdgeMovesEndpoints) {
  Graph g(4);
  const EdgeId e = g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.ReplaceEdge(e, 0, 2);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 2u);
}

TEST(GraphTest, ReplaceEdgeHandlesLoopToRegular) {
  Graph g(3);
  const EdgeId e = g.AddEdge(1, 1);
  EXPECT_EQ(g.Degree(1), 2u);
  g.ReplaceEdge(e, 1, 2);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.edge(e).u, 1u);
  EXPECT_EQ(g.edge(e).v, 2u);
}

TEST(GraphTest, ReplaceEdgeHandlesRegularToLoop) {
  Graph g(3);
  const EdgeId e = g.AddEdge(1, 2);
  g.ReplaceEdge(e, 0, 0);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 0u);
}

TEST(GraphTest, StarDegreesFollowReplace) {
  Graph g(5);
  for (NodeId v = 1; v < 5; ++v) g.AddEdge(0, v);
  EXPECT_EQ(g.Degree(0), 4u);
  EXPECT_EQ(g.MaxDegree(), 4u);
  // Moving every spoke onto node 1 makes it the hub.
  for (EdgeId e = 1; e < g.NumEdges(); ++e) g.ReplaceEdge(e, 1, g.edge(e).v);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 4u);
  EXPECT_EQ(g.MaxDegree(), 4u);
  EXPECT_EQ(g.TotalDegree(), 2 * g.NumEdges());
}

TEST(GraphTest, EdgesAreStableUnderReplace) {
  Graph g(4);
  g.AddEdge(0, 1);
  const EdgeId e1 = g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.ReplaceEdge(e1, 0, 3);
  ASSERT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(2).u, 2u);
}

}  // namespace
}  // namespace sgr
