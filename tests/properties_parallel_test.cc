#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/properties.h"
#include "exp/parallel.h"
#include "graph/generators.h"

namespace sgr {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameBits(const ShortestPathProperties& a,
                    const ShortestPathProperties& b) {
  EXPECT_TRUE(SameBits(a.average_length, b.average_length));
  EXPECT_TRUE(SameBits(a.length_dist, b.length_dist));
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_TRUE(SameBits(a.betweenness_by_degree, b.betweenness_by_degree));
}

void ExpectSameBits(const GraphProperties& a, const GraphProperties& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_TRUE(SameBits(a.average_degree, b.average_degree));
  EXPECT_TRUE(SameBits(a.degree_dist, b.degree_dist));
  EXPECT_TRUE(SameBits(a.neighbor_connectivity, b.neighbor_connectivity));
  EXPECT_TRUE(SameBits(a.clustering_global, b.clustering_global));
  EXPECT_TRUE(SameBits(a.clustering_by_degree, b.clustering_by_degree));
  EXPECT_TRUE(SameBits(a.esp_dist, b.esp_dist));
  EXPECT_TRUE(SameBits(a.average_path_length, b.average_path_length));
  EXPECT_TRUE(SameBits(a.path_length_dist, b.path_length_dist));
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_TRUE(SameBits(a.betweenness_by_degree, b.betweenness_by_degree));
  EXPECT_TRUE(SameBits(a.largest_eigenvalue, b.largest_eigenvalue));
}

/// A seeded random multigraph: self-loops and parallel edges included.
CsrGraph SeededMultigraph() {
  Rng rng(17);
  Graph g(300);
  for (int e = 0; e < 900; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.NextIndex(300)),
              static_cast<NodeId>(rng.NextIndex(300)));
  }
  for (NodeId v = 0; v < 20; ++v) {
    g.AddEdge(v, v);          // a loop
    g.AddEdge(v, v + 1);      // and a parallel pair
    g.AddEdge(v, v + 1);
  }
  return CsrGraph(g);
}

/// Two components of different sizes plus isolated nodes: the paths run
/// on the larger one only.
CsrGraph DisconnectedGraph() {
  Rng rng(23);
  const Graph big = GeneratePowerlawCluster(250, 3, 0.4, rng);
  Graph g(big.NumNodes() + 40 + 5);
  for (const Edge& e : big.edges()) g.AddEdge(e.u, e.v);
  const NodeId base = static_cast<NodeId>(big.NumNodes());
  for (NodeId i = 0; i + 1 < 40; ++i) g.AddEdge(base + i, base + i + 1);
  return CsrGraph(g);
}

TEST(ParallelPropertiesTest, ThreadCountDoesNotChangeResults) {
  Rng rng(1);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, rng));
  PropertyOptions one;
  one.threads = 1;
  const ShortestPathProperties reference =
      ComputeShortestPathProperties(g, one);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PropertyOptions many;
    many.threads = threads;
    ExpectSameBits(ComputeShortestPathProperties(g, many), reference);
  }
}

TEST(ParallelPropertiesTest, SampledSourcesIdenticalAcrossThreadCounts) {
  Rng rng(2);
  const CsrGraph g(GeneratePowerlawCluster(800, 3, 0.4, rng));
  PropertyOptions one;
  one.threads = 1;
  one.max_path_sources = 100;
  const ShortestPathProperties reference =
      ComputeShortestPathProperties(g, one);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PropertyOptions many = one;
    many.threads = threads;
    ExpectSameBits(ComputeShortestPathProperties(g, many), reference);
  }
}

TEST(ParallelPropertiesTest, MultigraphAndDisconnectedGraphBitForBit) {
  const CsrGraph graphs[] = {SeededMultigraph(), DisconnectedGraph()};
  for (const CsrGraph& g : graphs) {
    for (const std::size_t sources : {std::size_t{0}, std::size_t{37}}) {
      PropertyOptions one;
      one.threads = 1;
      one.max_path_sources = sources;
      const GraphProperties reference = ComputeProperties(g, one);
      ASSERT_GT(reference.diameter, 0u);
      for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE("n " + std::to_string(g.NumNodes()) + ", sources " +
                     std::to_string(sources) + ", threads " +
                     std::to_string(threads));
        PropertyOptions many = one;
        many.threads = threads;
        ExpectSameBits(ComputeProperties(g, many), reference);
      }
    }
  }
}

TEST(ParallelPropertiesTest, InsidePoolTasksBitForBit) {
  // Every worker of the pool evaluates at once, so the nested source loops
  // share the pool with busy callers and with each other.
  const CsrGraph g = SeededMultigraph();
  PropertyOptions one;
  one.threads = 1;
  const GraphProperties reference = ComputeProperties(g, one);
  ThreadPool pool(4);
  const std::size_t tasks = 2 * std::size(kThreadCounts);
  std::vector<GraphProperties> results(tasks);
  PoolFor(pool, tasks, [&](std::size_t i) {
    PropertyOptions options;
    options.threads = kThreadCounts[i % std::size(kThreadCounts)];
    results[i] = ComputeProperties(g, options);
  });
  for (std::size_t i = 0; i < tasks; ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    ExpectSameBits(results[i], reference);
  }
}

TEST(ParallelPropertiesTest, DefaultOptionsMatchOneThreadBitForBit) {
  // The source-ordered reduction makes every thread count give one
  // thread's bits, so the default and 4 workers agree with it.
  Rng rng(3);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, rng));
  PropertyOptions one;
  one.threads = 1;
  PropertyOptions four;
  four.threads = 4;
  const GraphProperties reference = ComputeProperties(g, one);
  ExpectSameBits(ComputeProperties(g, four), reference);
  ExpectSameBits(ComputeProperties(g), reference);
}

TEST(ParallelPropertiesTest, MoreThreadsThanSources) {
  const CsrGraph g(GenerateCycle(6));
  PropertyOptions options;
  options.threads = 32;  // > n: must clamp, not crash
  const ShortestPathProperties sp = ComputeShortestPathProperties(g, options);
  EXPECT_EQ(sp.diameter, 3u);
}

TEST(ParallelPropertiesTest, RejectsThreadsAboveTheLimit) {
  // One node: a missing check would return before any thread could start,
  // so this run starts none either way.
  const CsrGraph g(Graph(1));
  PropertyOptions options;
  options.threads = 100000;
  for (int call = 0; call < 2; ++call) {
    try {
      if (call == 0) {
        ComputeShortestPathProperties(g, options);
      } else {
        ComputeProperties(g, options);
      }
      ADD_FAILURE() << "threads = 100000 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("100000"), std::string::npos)
          << e.what();
    }
  }
  options.threads = kMaxThreads;  // the limit itself is accepted
  EXPECT_NO_THROW(ComputeShortestPathProperties(g, options));
}

}  // namespace
}  // namespace sgr
