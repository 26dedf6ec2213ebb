#include "analysis/properties.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "graph/generators.h"

namespace sgr {
namespace {

TEST(PropertiesTest, DegreeDistributionSumsToOne) {
  Rng rng(1);
  const CsrGraph g(GeneratePowerlawCluster(300, 3, 0.4, rng));
  const std::vector<double> p = DegreeDistribution(g);
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-12);
}

TEST(PropertiesTest, DegreeDistributionOfStar) {
  const std::vector<double> p = DegreeDistribution(CsrGraph(GenerateStar(10)));
  EXPECT_DOUBLE_EQ(p[1], 0.9);
  EXPECT_DOUBLE_EQ(p[9], 0.1);
}

TEST(PropertiesTest, NeighborConnectivityOfStar) {
  // Leaves (degree 1) neighbor only the hub (degree 9): knn(1) = 9.
  // Hub neighbors only leaves: knn(9) = 1.
  const std::vector<double> knn =
      NeighborConnectivity(CsrGraph(GenerateStar(10)));
  EXPECT_DOUBLE_EQ(knn[1], 9.0);
  EXPECT_DOUBLE_EQ(knn[9], 1.0);
}

TEST(PropertiesTest, NeighborConnectivityOfCycleIsTwo) {
  const std::vector<double> knn =
      NeighborConnectivity(CsrGraph(GenerateCycle(20)));
  EXPECT_DOUBLE_EQ(knn[2], 2.0);
}

TEST(PropertiesTest, ClusteringOfCompleteIsOne) {
  EXPECT_DOUBLE_EQ(
      NetworkClusteringCoefficient(CsrGraph(GenerateComplete(6))), 1.0);
}

TEST(PropertiesTest, ClusteringOfTreeIsZero) {
  EXPECT_DOUBLE_EQ(NetworkClusteringCoefficient(CsrGraph(GenerateStar(8))),
                   0.0);
  EXPECT_DOUBLE_EQ(NetworkClusteringCoefficient(CsrGraph(GeneratePath(8))),
                   0.0);
}

TEST(PropertiesTest, EspOfCompleteGraph) {
  // Every edge of K5 has exactly 3 shared partners.
  const std::vector<double> esp =
      EdgewiseSharedPartners(CsrGraph(GenerateComplete(5)));
  ASSERT_EQ(esp.size(), 4u);
  EXPECT_DOUBLE_EQ(esp[3], 1.0);
  EXPECT_DOUBLE_EQ(esp[0], 0.0);
}

TEST(PropertiesTest, EspOfCycle) {
  // Cycle edges share no partners.
  const std::vector<double> esp =
      EdgewiseSharedPartners(CsrGraph(GenerateCycle(10)));
  ASSERT_GE(esp.size(), 1u);
  EXPECT_DOUBLE_EQ(esp[0], 1.0);
}

TEST(PropertiesTest, EspDistributionSumsToOneOnSimpleGraphs) {
  Rng rng(2);
  const CsrGraph g(GeneratePowerlawCluster(200, 3, 0.5, rng));
  const std::vector<double> esp = EdgewiseSharedPartners(g);
  EXPECT_NEAR(std::accumulate(esp.begin(), esp.end(), 0.0), 1.0, 1e-12);
}

TEST(PropertiesTest, LargestEigenvalueOfCompleteGraph) {
  // λ1(K_n) = n - 1.
  EXPECT_NEAR(LargestEigenvalue(CsrGraph(GenerateComplete(8))), 7.0, 1e-6);
}

TEST(PropertiesTest, LargestEigenvalueOfStar) {
  // λ1(S_n with n-1 leaves) = sqrt(n-1).
  EXPECT_NEAR(LargestEigenvalue(CsrGraph(GenerateStar(17))), 4.0, 1e-6);
}

TEST(PropertiesTest, LargestEigenvalueOfCycle) {
  EXPECT_NEAR(LargestEigenvalue(CsrGraph(GenerateCycle(12))), 2.0, 1e-6);
}

TEST(PropertiesTest, ShortestPathsOnPath) {
  const CsrGraph g(GeneratePath(4));  // distances: 1x3 pairs... exact below
  const ShortestPathProperties sp = ComputeShortestPathProperties(g);
  // Pairs (ordered, 12 total): d=1: 6, d=2: 4, d=3: 2.
  EXPECT_DOUBLE_EQ(sp.average_length, (6 * 1 + 4 * 2 + 2 * 3) / 12.0);
  EXPECT_EQ(sp.diameter, 3u);
  ASSERT_EQ(sp.length_dist.size(), 4u);
  EXPECT_DOUBLE_EQ(sp.length_dist[1], 0.5);
  EXPECT_DOUBLE_EQ(sp.length_dist[2], 4.0 / 12.0);
  EXPECT_DOUBLE_EQ(sp.length_dist[3], 2.0 / 12.0);
}

TEST(PropertiesTest, PathLengthDistributionSumsToOne) {
  Rng rng(3);
  const CsrGraph g(GeneratePowerlawCluster(150, 3, 0.4, rng));
  const ShortestPathProperties sp = ComputeShortestPathProperties(g);
  EXPECT_NEAR(std::accumulate(sp.length_dist.begin(), sp.length_dist.end(),
                              0.0),
              1.0, 1e-12);
}

TEST(PropertiesTest, BetweennessOfStarHub) {
  // Hub of S_n lies on every leaf-leaf shortest path: b_hub =
  // (n-1)(n-2) ordered pairs; leaves have 0.
  const CsrGraph g(GenerateStar(8));
  const std::vector<double> b = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(b[0], 7.0 * 6.0);
  for (NodeId v = 1; v < 8; ++v) EXPECT_DOUBLE_EQ(b[v], 0.0);
}

TEST(PropertiesTest, BetweennessOfPathMiddle) {
  // P4 = 0-1-2-3: node 1 carries pairs {0}x{2,3} = 2 unordered = 4
  // ordered.
  const CsrGraph g(GeneratePath(4));
  const std::vector<double> b = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(b[1], 4.0);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
}

TEST(PropertiesTest, BetweennessSplitShortestPaths) {
  // Square 0-1-2-3-0: pair (0,2) has two shortest paths through 1 and 3,
  // each carrying 1/2 per direction.
  const CsrGraph g(GenerateCycle(4));
  const std::vector<double> b = BetweennessCentrality(g);
  for (NodeId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(b[v], 1.0);
}

TEST(PropertiesTest, BetweennessMatchesBruteForceOnRandomGraph) {
  Rng rng(4);
  const Graph g = GenerateErdosRenyiGnm(30, 60, rng);
  // Use only the LCC (brute force below assumes connectivity).
  const CsrGraph lcc([&] {
    return GeneratePowerlawCluster(30, 2, 0.3, rng);  // connected by design
  }());
  const std::vector<double> fast = BetweennessCentrality(lcc);
  // Brute force via repeated BFS path counting.
  const std::size_t n = lcc.NumNodes();
  std::vector<double> slow(n, 0.0);
  for (NodeId s = 0; s < n; ++s) {
    // BFS from s computing sigma and distances.
    std::vector<int> dist(n, -1);
    std::vector<double> sigma(n, 0.0);
    std::vector<NodeId> order;
    dist[s] = 0;
    sigma[s] = 1;
    std::vector<NodeId> queue = {s};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      order.push_back(v);
      for (NodeId w : lcc.neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    std::vector<double> delta(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId w = *it;
      for (NodeId v : lcc.neighbors(w)) {
        if (dist[v] == dist[w] - 1) {
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != s) slow[w] += delta[w];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(fast[v], slow[v], 1e-9) << "node " << v;
  }
}

TEST(PropertiesTest, SampledSourcesApproximateExactPaths) {
  Rng rng(5);
  const CsrGraph g(GeneratePowerlawCluster(500, 3, 0.4, rng));
  PropertyOptions exact;
  PropertyOptions sampled;
  sampled.max_path_sources = 150;
  const ShortestPathProperties e = ComputeShortestPathProperties(g, exact);
  const ShortestPathProperties s = ComputeShortestPathProperties(g, sampled);
  EXPECT_NEAR(s.average_length, e.average_length, 0.1 * e.average_length);
  EXPECT_LE(s.diameter, e.diameter);
  EXPECT_GE(s.diameter, e.diameter > 2 ? e.diameter - 2 : 0);
}

TEST(PropertiesTest, ShortestPathsUseLargestComponent) {
  Graph g(7);
  // Component A: triangle. Component B: path of 4 (larger).
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  const ShortestPathProperties sp =
      ComputeShortestPathProperties(CsrGraph(g));
  EXPECT_EQ(sp.diameter, 3u);  // the path's diameter, not the triangle's
}

TEST(PropertiesTest, ComputePropertiesFillsAllTwelve) {
  Rng rng(6);
  const CsrGraph g(GeneratePowerlawCluster(250, 3, 0.5, rng));
  const GraphProperties p = ComputeProperties(g);
  EXPECT_EQ(p.num_nodes, g.NumNodes());
  EXPECT_DOUBLE_EQ(p.average_degree, g.AverageDegree());
  EXPECT_FALSE(p.degree_dist.empty());
  EXPECT_FALSE(p.neighbor_connectivity.empty());
  EXPECT_GT(p.clustering_global, 0.0);
  EXPECT_FALSE(p.clustering_by_degree.empty());
  EXPECT_FALSE(p.esp_dist.empty());
  EXPECT_GT(p.average_path_length, 1.0);
  EXPECT_FALSE(p.path_length_dist.empty());
  EXPECT_GE(p.diameter, 2u);
  EXPECT_FALSE(p.betweenness_by_degree.empty());
  EXPECT_GT(p.largest_eigenvalue, p.average_degree);
}

TEST(PropertiesTest, MultigraphDegreesIncludeLoopsAndParallels) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(2, 2);
  const std::vector<double> p = DegreeDistribution(CsrGraph(g));
  // Degrees: 2, 2, 2.
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p[2], 1.0);
}

}  // namespace
}  // namespace sgr
