#include "sampling/subgraph.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sampling/random_walk.h"

namespace sgr {
namespace {

/// The paper's Fig. 1 example: a walk visiting v1, v3, v6, v3 on the
/// 10-node illustration graph. We reconstruct the graph from the figure's
/// visible edges plus the stated result: querying {v1, v3, v6} yields
/// V'vis = {v2, v4, v5, v8} and E' = {(1,3),(2,3),(3,4),(3,6),(5,6),(6,8)}.
/// (0-based below: nodes 0..9.)
SamplingList Fig1SamplingList() {
  SamplingList list;
  list.is_walk = true;
  list.visit_sequence = {0, 2, 5, 2};  // v1, v3, v6, v3
  list.neighbors[0] = {2};             // N(v1) = {v3}
  list.neighbors[2] = {0, 1, 3, 5};    // N(v3) = {v1, v2, v4, v6}
  list.neighbors[5] = {2, 4, 7};       // N(v6) = {v3, v5, v8}
  return list;
}

TEST(SubgraphTest, Fig1Example) {
  const Subgraph sub = BuildSubgraph(Fig1SamplingList());
  EXPECT_EQ(sub.NumQueried(), 3u);
  EXPECT_EQ(sub.NumVisible(), 4u);
  EXPECT_EQ(sub.graph.NumNodes(), 7u);
  EXPECT_EQ(sub.graph.NumEdges(), 6u);

  // Queried nodes keep their true degree (Lemma 1, first case).
  EXPECT_EQ(sub.graph.Degree(sub.from_original.at(0)), 1u);
  EXPECT_EQ(sub.graph.Degree(sub.from_original.at(2)), 4u);
  EXPECT_EQ(sub.graph.Degree(sub.from_original.at(5)), 3u);

  // Edge set matches the figure.
  auto has = [&sub](NodeId a, NodeId b) {
    return sub.graph.HasEdge(sub.from_original.at(a),
                             sub.from_original.at(b));
  };
  EXPECT_TRUE(has(0, 2));
  EXPECT_TRUE(has(1, 2));
  EXPECT_TRUE(has(2, 3));
  EXPECT_TRUE(has(2, 5));
  EXPECT_TRUE(has(4, 5));
  EXPECT_TRUE(has(5, 7));
}

TEST(SubgraphTest, QueriedFlagsAreCorrect) {
  const Subgraph sub = BuildSubgraph(Fig1SamplingList());
  for (const auto& [orig, sub_id] : sub.from_original) {
    const bool queried = (orig == 0 || orig == 2 || orig == 5);
    EXPECT_EQ(sub.is_queried[sub_id], queried) << "node " << orig;
  }
}

TEST(SubgraphTest, MappingsAreInverse) {
  const Subgraph sub = BuildSubgraph(Fig1SamplingList());
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    EXPECT_EQ(sub.from_original.at(sub.to_original[v]), v);
  }
}

TEST(SubgraphTest, NoDuplicateEdgesBetweenQueriedNodes) {
  // Both endpoints queried: the edge appears in both neighbor lists but
  // must be added exactly once.
  SamplingList list;
  list.is_walk = true;
  list.visit_sequence = {0, 1};
  list.neighbors[0] = {1};
  list.neighbors[1] = {0};
  const Subgraph sub = BuildSubgraph(list);
  EXPECT_EQ(sub.graph.NumNodes(), 2u);
  EXPECT_EQ(sub.graph.NumEdges(), 1u);
}

TEST(SubgraphTest, LemmaOneOnRealWalk) {
  Rng rng(200);
  const CsrGraph g(GeneratePowerlawCluster(400, 3, 0.5, rng));
  QueryOracle oracle(g);
  const SamplingList list = RandomWalkSample(oracle, 0, 60, rng);
  const Subgraph sub = BuildSubgraph(list);
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    const NodeId orig = sub.to_original[v];
    if (sub.is_queried[v]) {
      EXPECT_EQ(sub.graph.Degree(v), g.Degree(orig));
    } else {
      EXPECT_LE(sub.graph.Degree(v), g.Degree(orig));
      EXPECT_GE(sub.graph.Degree(v), 1u);
    }
  }
}

TEST(SubgraphTest, SubgraphEdgesExistInOriginal) {
  Rng rng(201);
  const CsrGraph g(GeneratePowerlawCluster(300, 4, 0.3, rng));
  QueryOracle oracle(g);
  const SamplingList list = RandomWalkSample(oracle, 5, 45, rng);
  const Subgraph sub = BuildSubgraph(list);
  for (const Edge& e : sub.graph.edges()) {
    EXPECT_TRUE(g.HasEdge(sub.to_original[e.u], sub.to_original[e.v]));
  }
  EXPECT_TRUE(sub.graph.IsSimple());
}

TEST(SubgraphTest, EveryEdgeTouchesAQueriedNode) {
  Rng rng(202);
  const CsrGraph g(GeneratePowerlawCluster(300, 4, 0.3, rng));
  QueryOracle oracle(g);
  const SamplingList list = RandomWalkSample(oracle, 9, 30, rng);
  const Subgraph sub = BuildSubgraph(list);
  for (const Edge& e : sub.graph.edges()) {
    EXPECT_TRUE(sub.is_queried[e.u] || sub.is_queried[e.v]);
  }
}

TEST(SubgraphTest, CoversUnionOfNeighborLists) {
  Rng rng(203);
  const CsrGraph g(GeneratePowerlawCluster(300, 4, 0.3, rng));
  QueryOracle oracle(g);
  const SamplingList list = RandomWalkSample(oracle, 11, 40, rng);
  const Subgraph sub = BuildSubgraph(list);
  // |E'| = |union of N(v) over queried v|.
  std::size_t expected_edges = 0;
  for (const auto& [u, nbrs] : list.neighbors) {
    for (NodeId w : nbrs) {
      if (list.neighbors.count(w) > 0) {
        if (u < w) ++expected_edges;  // counted once
      } else {
        ++expected_edges;
      }
    }
  }
  EXPECT_EQ(sub.graph.NumEdges(), expected_edges);
}

}  // namespace
}  // namespace sgr
