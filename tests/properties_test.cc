#include "analysis/properties.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "dk/dk_extract.h"
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

/// The dense multiplicity matrix A of `g` (a loop counts 2 on the
/// diagonal).
std::vector<std::vector<std::int64_t>> Multiplicities(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  std::vector<std::vector<std::int64_t>> a(n, std::vector<std::int64_t>(n, 0));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId w : g.neighbors(u)) ++a[u][w];
  }
  return a;
}

/// P(s) from the dense multiplicity matrix: s = Σ_{w != u,v} A_uw A_vw for
/// each connected pair u < v, weighted by A_uv.
std::vector<double> ReferenceEsp(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  const std::vector<std::vector<std::int64_t>> a = Multiplicities(g);
  std::vector<std::int64_t> histogram;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (a[u][v] == 0) continue;
      std::int64_t shared = 0;
      for (NodeId w = 0; w < n; ++w) {
        if (w != u && w != v) shared += a[u][w] * a[v][w];
      }
      if (static_cast<std::size_t>(shared) >= histogram.size()) {
        histogram.resize(shared + 1, 0);
      }
      histogram[shared] += a[u][v];
    }
  }
  std::vector<double> p(histogram.size(), 0.0);
  for (std::size_t s = 0; s < histogram.size(); ++s) {
    p[s] = static_cast<double>(histogram[s]) /
           static_cast<double>(g.NumEdges());
  }
  return p;
}

/// Seeded multigraphs with loops and parallel edges, plus a hub-heavy case
/// whose pairs are oriented by degree at the hub and by id where degrees
/// tie.
std::vector<Graph> SeededMultigraphs() {
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Random endpoints on few nodes: loops and parallel edges are common.
    Rng rng(seed);
    const std::size_t n = 10 + 5 * seed;
    Graph g(n);
    for (std::size_t e = 0; e < 4 * n; ++e) {
      g.AddEdge(static_cast<NodeId>(rng.NextIndex(n)),
                static_cast<NodeId>(rng.NextIndex(n)));
    }
    graphs.push_back(std::move(g));
  }
  {
    // Hub-heavy: a star whose hub (id 0, the largest degree) also joins a
    // 6-clique of higher ids, so pairs are oriented by degree at the hub
    // and by id inside the clique, where degrees tie.
    Graph g(GenerateStar(20));
    const NodeId first = 20;
    g.AddNodes(6);
    for (NodeId u = first; u < first + 6; ++u) {
      g.AddEdge(0, u);
      for (NodeId v = u + 1; v < first + 6; ++v) g.AddEdge(u, v);
    }
    g.AddEdge(0, first);  // a parallel hub edge
    g.AddEdge(3, first + 1);
    graphs.push_back(std::move(g));
  }
  return graphs;
}

TEST(PropertiesTest, EspMatchesNaiveReferenceOnMultigraphs) {
  const std::vector<Graph> graphs = SeededMultigraphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const CsrGraph g(graphs[i]);
    const std::vector<double> fast = EdgewiseSharedPartners(g);
    const std::vector<double> slow = ReferenceEsp(g);
    ASSERT_EQ(fast.size(), slow.size()) << "graph " << i;
    for (std::size_t s = 0; s < fast.size(); ++s) {
      EXPECT_EQ(fast[s], slow[s]) << "graph " << i << ", s = " << s;
    }
  }
}

/// t_i = Σ_{j<l; j,l != i} A_ij A_il A_jl from the dense multiplicity
/// matrix.
std::vector<std::int64_t> ReferenceTriangles(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  const std::vector<std::vector<std::int64_t>> a = Multiplicities(g);
  std::vector<std::int64_t> t(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (j == i || a[i][j] == 0) continue;
      for (NodeId l = j + 1; l < n; ++l) {
        if (l != i) t[i] += a[i][j] * a[i][l] * a[j][l];
      }
    }
  }
  return t;
}

TEST(PropertiesTest, TrianglesMatchNaiveReferenceOnMultigraphs) {
  const std::vector<Graph> graphs = SeededMultigraphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const CsrGraph g(graphs[i]);
    const std::vector<std::int64_t> t = ReferenceTriangles(g);
    EXPECT_EQ(CountTrianglesPerNode(g), t) << "graph " << i;
    // c̄ and c̄(k) are the formulas applied to t, bit for bit.
    const GraphProperties p = ComputeProperties(g);
    EXPECT_EQ(p.clustering_global, NetworkClusteringFromTriangles(g, t))
        << "graph " << i;
    EXPECT_EQ(p.clustering_by_degree, ExtractDegreeDependentClustering(g, t))
        << "graph " << i;
  }
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

/// Brandes with the textbook dependency pass: every adjacency list is
/// rescanned for the neighbors one level closer to the source. Each
/// delta[v] receives the same addends in the same order (reverse BFS order
/// of w) as in the predecessor-slot kernel, so the two agree bit for bit.
std::vector<double> ReferenceBetweenness(const CsrGraph& g) {
  const std::size_t n = g.NumNodes();
  std::vector<double> b(n, 0.0);
  for (NodeId s = 0; s < n; ++s) {
    std::vector<int> dist(n, -1);
    std::vector<double> sigma(n, 0.0);
    std::vector<NodeId> order = {s};
    dist[s] = 0;
    sigma[s] = 1;
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      for (NodeId w : g.neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          order.push_back(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    std::vector<double> delta(n, 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId w = *it;
      for (NodeId v : g.neighbors(w)) {
        if (dist[v] == dist[w] - 1) {
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != s) b[w] += delta[w];
    }
  }
  return b;
}

TEST(PropertiesTest, BetweennessOnDisconnectedGraph) {
  // Two disjoint P4 paths 0-1-2-3 and 4-5-6-7: pairs in different
  // components have no shortest path, so each path scores as on its own.
  Graph g(8);
  for (NodeId base : {NodeId{0}, NodeId{4}}) {
    g.AddEdge(base, base + 1);
    g.AddEdge(base + 1, base + 2);
    g.AddEdge(base + 2, base + 3);
  }
  const std::vector<double> b = BetweennessCentrality(CsrGraph(g));
  ASSERT_EQ(b.size(), 8u);
  for (NodeId v : {0, 3, 4, 7}) EXPECT_EQ(b[v], 0.0) << "node " << v;
  for (NodeId v : {1, 2, 5, 6}) EXPECT_EQ(b[v], 4.0) << "node " << v;
}

TEST(PropertiesTest, BetweennessMatchesBruteForceOnRandomGraph) {
  Rng rng(4);
  const Graph g = GenerateErdosRenyiGnm(30, 60, rng);
  // A connected graph by design.
  const CsrGraph lcc([&] {
    return GeneratePowerlawCluster(30, 2, 0.3, rng);  // connected by design
  }());
  const std::vector<double> fast = BetweennessCentrality(lcc);
  const std::vector<double> slow = ReferenceBetweenness(lcc);
  ASSERT_EQ(fast.size(), slow.size());
  for (NodeId v = 0; v < lcc.NumNodes(); ++v) {
    EXPECT_EQ(fast[v], slow[v]) << "node " << v;
  }
}

TEST(PropertiesTest, BetweennessMatchesBruteForceOnMultigraph) {
  // Parallel edges multiply path counts and a loop adds none; both must
  // reach the dependency pass exactly as in the reference.
  Rng rng(9);
  Graph g = GeneratePowerlawCluster(40, 2, 0.3, rng);
  for (int i = 0; i < 12; ++i) {
    const auto u = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
    const NodeId v = CsrGraph(g).neighbors(u)[rng.NextIndex(g.Degree(u))];
    g.AddEdge(u, v);
  }
  g.AddEdge(7, 7);
  const CsrGraph csr(g);
  ASSERT_FALSE(csr.IsSimple());
  const std::vector<double> fast = BetweennessCentrality(csr);
  const std::vector<double> slow = ReferenceBetweenness(csr);
  ASSERT_EQ(fast.size(), slow.size());
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    EXPECT_EQ(fast[v], slow[v]) << "node " << v;
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
