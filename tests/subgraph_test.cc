#include "sampling/subgraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/generators.h"
#include "sampling/random_walk.h"

#include "sample_helpers.h"

namespace sgr {
namespace {

/// The paper's Fig. 1 example: a walk visiting v1, v3, v6, v3 on the
/// 10-node illustration graph. We reconstruct the graph from the figure's
/// visible edges plus the stated result: querying {v1, v3, v6} yields
/// V'vis = {v2, v4, v5, v8} and E' = {(1,3),(2,3),(3,4),(3,6),(5,6),(6,8)}.
/// (0-based below: nodes 0..9.)
/// Original id -> subgraph id, the inverse of `sub.to_original`.
std::unordered_map<NodeId, NodeId> FromOriginal(const Subgraph& sub) {
  std::unordered_map<NodeId, NodeId> from_original;
  for (NodeId v = 0; v < sub.to_original.size(); ++v) {
    from_original.emplace(sub.to_original[v], v);
  }
  return from_original;
}

SamplingList Fig1SamplingList() {
  return HandBuiltList(true, {0, 2, 5, 2},  // v1, v3, v6, v3
                       {{0, {2}},              // N(v1) = {v3}
                        {2, {0, 1, 3, 5}},     // N(v3) = {v1, v2, v4, v6}
                        {5, {2, 4, 7}}});      // N(v6) = {v3, v5, v8}
}

TEST(SubgraphTest, Fig1Example) {
  const Subgraph sub = BuildSubgraph(Fig1SamplingList());
  EXPECT_EQ(sub.NumQueried(), 3u);
  EXPECT_EQ(sub.NumVisible(), 4u);
  EXPECT_EQ(sub.graph.NumNodes(), 7u);
  EXPECT_EQ(sub.graph.NumEdges(), 6u);
  const std::unordered_map<NodeId, NodeId> from_original = FromOriginal(sub);

  // Queried nodes keep their true degree (Lemma 1, first case).
  EXPECT_EQ(sub.graph.Degree(from_original.at(0)), 1u);
  EXPECT_EQ(sub.graph.Degree(from_original.at(2)), 4u);
  EXPECT_EQ(sub.graph.Degree(from_original.at(5)), 3u);

  // Edge set matches the figure.
  const CsrGraph csr(sub.graph);
  auto has = [&](NodeId a, NodeId b) {
    return csr.HasEdge(from_original.at(a), from_original.at(b));
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
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    const NodeId orig = sub.to_original[v];
    const bool queried = (orig == 0 || orig == 2 || orig == 5);
    EXPECT_EQ(sub.IsQueried(v), queried) << "node " << orig;
  }
}

TEST(SubgraphTest, NumberingIsQueriedAscendingThenFirstSeen) {
  // Queried nodes take [0, q) in ascending original id; visible nodes
  // follow in order of first appearance along the ascending rows.
  const Subgraph sub = BuildSubgraph(Fig1SamplingList());
  EXPECT_EQ(sub.to_original, (std::vector<NodeId>{0, 2, 5, 1, 3, 4, 7}));
}

TEST(SubgraphTest, MappingsAreInverse) {
  const Subgraph sub = BuildSubgraph(Fig1SamplingList());
  const std::unordered_map<NodeId, NodeId> from_original = FromOriginal(sub);
  ASSERT_EQ(from_original.size(), sub.graph.NumNodes());  // no repeats
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    EXPECT_EQ(from_original.at(sub.to_original[v]), v);
  }
}

TEST(SubgraphTest, NoDuplicateEdgesBetweenQueriedNodes) {
  // Both endpoints queried: the edge appears in both neighbor lists but
  // must be added exactly once.
  const SamplingList list = HandBuiltList(true, {0, 1}, {{0, {1}}, {1, {0}}});
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
    if (sub.IsQueried(v)) {
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
  EXPECT_TRUE(CsrGraph(sub.graph).IsSimple());
}

TEST(SubgraphTest, EveryEdgeTouchesAQueriedNode) {
  Rng rng(202);
  const CsrGraph g(GeneratePowerlawCluster(300, 4, 0.3, rng));
  QueryOracle oracle(g);
  const SamplingList list = RandomWalkSample(oracle, 9, 30, rng);
  const Subgraph sub = BuildSubgraph(list);
  for (const Edge& e : sub.graph.edges()) {
    EXPECT_TRUE(sub.IsQueried(e.u) || sub.IsQueried(e.v));
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
  for (std::uint32_t u = 0; u < list.NumQueried(); ++u) {
    for (const NodeId w : list.Row(u)) {
      const bool queried =
          std::binary_search(list.SeenIds().begin(),
                             list.SeenIds().begin() + list.NumQueried(), w);
      if (queried) {
        if (list.OriginalId(u) < w) ++expected_edges;  // counted once
      } else {
        ++expected_edges;
      }
    }
  }
  EXPECT_EQ(sub.graph.NumEdges(), expected_edges);
}

}  // namespace
}  // namespace sgr
