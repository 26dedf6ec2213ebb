#include "dk/triangle_tracker.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dk/dk_extract.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {
namespace {

TEST(TriangleTrackerTest, InitialCountsMatchExtractor) {
  Rng rng(51);
  const Graph g = GeneratePowerlawCluster(200, 3, 0.6, rng);
  TriangleTracker tracker(g, {});
  const std::vector<std::int64_t> expected = CountTrianglesPerNode(CsrGraph(g));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(tracker.triangles(v), expected[v]) << "node " << v;
  }
}

TEST(TriangleTrackerTest, AddEdgeCreatesTriangles) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TriangleTracker tracker(g, {});
  EXPECT_EQ(tracker.triangles(1), 0);
  tracker.AddEdge(0, 2);  // closes the triangle
  EXPECT_EQ(tracker.triangles(0), 1);
  EXPECT_EQ(tracker.triangles(1), 1);
  EXPECT_EQ(tracker.triangles(2), 1);
}

TEST(TriangleTrackerTest, RemoveEdgeDestroysTriangles) {
  const Graph g = GenerateComplete(4);
  TriangleTracker tracker(g, {});
  EXPECT_EQ(tracker.triangles(0), 3);
  tracker.RemoveEdge(0, 1);
  // 0 keeps only triangle {0,2,3}.
  EXPECT_EQ(tracker.triangles(0), 1);
  EXPECT_EQ(tracker.triangles(1), 1);
  EXPECT_EQ(tracker.triangles(2), 2);
  EXPECT_EQ(tracker.triangles(3), 2);
}

TEST(TriangleTrackerTest, LoopsAreTriangleNeutral) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  TriangleTracker tracker(g, {});
  tracker.AddEdge(1, 1);
  EXPECT_EQ(tracker.triangles(1), 1);
  EXPECT_EQ(tracker.Multiplicity(1, 1), 2);
  tracker.RemoveEdge(1, 1);
  EXPECT_EQ(tracker.Multiplicity(1, 1), 0);
  EXPECT_EQ(tracker.triangles(1), 1);
}

TEST(TriangleTrackerTest, MultiEdgeWeights) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  TriangleTracker tracker(g, {});
  tracker.AddEdge(0, 1);  // double one side: triangle weight doubles
  EXPECT_EQ(tracker.triangles(2), 2);
  EXPECT_EQ(tracker.triangles(0), 2);
  tracker.RemoveEdge(0, 1);
  EXPECT_EQ(tracker.triangles(2), 1);
}

TEST(TriangleTrackerTest, ClassTrianglesTrackDegrees) {
  const Graph g = GenerateComplete(4);  // all degree 3, 4 triangles total
  TriangleTracker tracker(g, {});
  EXPECT_EQ(tracker.ClassTriangles(3), 4 * 3);
  EXPECT_EQ(tracker.ClassTriangles(2), 0);
}

TEST(TriangleTrackerTest, PresentClusteringOfComplete) {
  const Graph g = GenerateComplete(5);
  TriangleTracker tracker(g, {});
  EXPECT_DOUBLE_EQ(tracker.PresentClustering(4), 1.0);
}

TEST(TriangleTrackerTest, ObjectiveMatchesDefinition) {
  const Graph g = GenerateComplete(4);
  // Target: ĉ̄(3) = 0.5; present 1.0; mass = 0.5 -> D = |1-0.5|/0.5 = 1.
  TriangleTracker tracker(g, {0.0, 0.0, 0.0, 0.5});
  EXPECT_DOUBLE_EQ(tracker.Objective(), 1.0);
}

TEST(TriangleTrackerTest, ObjectiveZeroWhenTargetEmpty) {
  const Graph g = GenerateComplete(4);
  TriangleTracker tracker(g, {});
  EXPECT_DOUBLE_EQ(tracker.Objective(), 0.0);
}

TEST(TriangleTrackerTest, ObjectiveRespondsToRewires) {
  // Square with a diagonal: removing the diagonal lowers clustering.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 2);
  std::vector<double> target = ExtractDegreeDependentClustering(CsrGraph(g));
  TriangleTracker tracker(g, target);
  EXPECT_NEAR(tracker.Objective(), 0.0, 1e-12);
  tracker.RemoveEdge(0, 2);
  EXPECT_GT(tracker.Objective(), 0.0);
  tracker.AddEdge(0, 2);
  tracker.RecomputeObjective();
  EXPECT_NEAR(tracker.Objective(), 0.0, 1e-12);
}

TEST(TriangleTrackerTest, RandomChurnStaysConsistent) {
  Rng rng(52);
  Graph g = GeneratePowerlawCluster(120, 3, 0.5, rng);
  TriangleTracker tracker(g, {});
  // Random add/remove churn mirrored on the graph; counts must match a
  // fresh recount at the end.
  std::vector<std::pair<NodeId, NodeId>> added;
  for (int step = 0; step < 300; ++step) {
    if (!added.empty() && rng.NextBernoulli(0.4)) {
      const std::size_t idx = rng.NextIndex(added.size());
      const auto [u, v] = added[idx];
      tracker.RemoveEdge(u, v);
      // remove from g: find edge id
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        const Edge& ed = g.edge(e);
        if ((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u)) {
          g.ReplaceEdge(e, u, u);  // park as loop, then drop from tracker
          tracker.AddEdge(u, u);
          break;
        }
      }
      added[idx] = added.back();
      added.pop_back();
    } else {
      const NodeId u = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
      const NodeId v = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
      if (u == v) continue;
      g.AddEdge(u, v);
      tracker.AddEdge(u, v);
      added.push_back({u, v});
    }
  }
  const std::vector<std::int64_t> expected = CountTrianglesPerNode(CsrGraph(g));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(tracker.triangles(v), expected[v]) << "node " << v;
  }
}

TEST(TriangleTrackerTest, SwapCyclesMatchAFreshTracker) {
  // Seeded degree-preserving swaps, each kept or reverted as Algorithm 6
  // does and mirrored on the graph when kept. After every tenth cycle each
  // count must equal that of a tracker built afresh from the graph.
  Rng gen_rng(53);
  Graph g = GeneratePowerlawCluster(150, 3, 0.5, gen_rng);
  g.AddEdge(4, 4);
  g.AddEdge(2, 8);
  g.AddEdge(2, 8);
  const std::vector<double> target(g.MaxDegree() + 1, 0.3);
  TriangleTracker tracker(g, target);
  Rng rng(54);
  for (int cycle = 1; cycle <= 300; ++cycle) {
    const EdgeId e1 = static_cast<EdgeId>(rng.NextIndex(g.NumEdges()));
    const EdgeId e2 = static_cast<EdgeId>(rng.NextIndex(g.NumEdges()));
    if (e1 == e2) continue;
    const Edge x = g.edge(e1);
    const Edge y = g.edge(e2);
    tracker.RemoveEdge(x.u, x.v);
    tracker.RemoveEdge(y.u, y.v);
    tracker.AddEdge(x.u, y.v);
    tracker.AddEdge(y.u, x.v);
    if (rng.NextBernoulli(0.5)) {
      g.ReplaceEdge(e1, x.u, y.v);
      g.ReplaceEdge(e2, y.u, x.v);
    } else {
      tracker.RemoveEdge(x.u, y.v);
      tracker.RemoveEdge(y.u, x.v);
      tracker.AddEdge(x.u, x.v);
      tracker.AddEdge(y.u, y.v);
    }
    if (cycle % 10 != 0) continue;
    const TriangleTracker fresh(g, target);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(tracker.triangles(v), fresh.triangles(v))
          << "cycle " << cycle << " node " << v;
      for (NodeId w = 0; w < g.NumNodes(); ++w) {
        ASSERT_EQ(tracker.Multiplicity(v, w), fresh.Multiplicity(v, w))
            << "cycle " << cycle << " pair " << v << "," << w;
      }
    }
    for (std::uint32_t k = 0; k <= g.MaxDegree(); ++k) {
      ASSERT_EQ(tracker.ClassTriangles(k), fresh.ClassTriangles(k))
          << "cycle " << cycle << " class " << k;
    }
    tracker.RecomputeObjective();
    ASSERT_EQ(tracker.Objective(), fresh.Objective()) << "cycle " << cycle;
  }
}

TEST(TriangleTrackerTest, EdgesBeyondADegreeOverflowTheSlab) {
  // Node 0 has degree 1 and node 5 degree 0, so their slabs hold one and
  // no map node; the edges added here live on the heap until removed.
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  TriangleTracker tracker(g, {});
  tracker.AddEdge(0, 2);  // closes 0-1-2
  tracker.AddEdge(0, 3);  // closes 0-2-3
  tracker.AddEdge(0, 4);  // closes 0-3-4
  tracker.AddEdge(5, 0);
  tracker.AddEdge(5, 4);  // closes 0-4-5
  EXPECT_EQ(tracker.triangles(0), 4);
  EXPECT_EQ(tracker.triangles(5), 1);
  // Free node 0's slab slot while its heap nodes are live, then reuse it.
  tracker.RemoveEdge(0, 1);
  EXPECT_EQ(tracker.Multiplicity(0, 1), 0);
  EXPECT_EQ(tracker.triangles(0), 3);
  tracker.AddEdge(1, 0);
  EXPECT_EQ(tracker.Multiplicity(0, 1), 1);
  EXPECT_EQ(tracker.triangles(0), 4);
  tracker.RemoveEdge(5, 4);
  tracker.RemoveEdge(0, 5);
  tracker.RemoveEdge(4, 0);
  tracker.RemoveEdge(3, 0);
  tracker.RemoveEdge(2, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(tracker.triangles(v), 0) << "node " << v;
  }
  EXPECT_EQ(tracker.Multiplicity(0, 1), 1);
  EXPECT_EQ(tracker.Multiplicity(0, 2), 0);
  EXPECT_EQ(tracker.Multiplicity(5, 0), 0);
}

}  // namespace
}  // namespace sgr
