#include <gtest/gtest.h>

#include "analysis/properties.h"
#include "graph/generators.h"

namespace sgr {
namespace {

TEST(ParallelPropertiesTest, ThreadCountDoesNotChangeResults) {
  Rng rng(1);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, rng));
  PropertyOptions one;
  one.threads = 1;
  PropertyOptions many;
  many.threads = 8;
  const ShortestPathProperties a = ComputeShortestPathProperties(g, one);
  const ShortestPathProperties b = ComputeShortestPathProperties(g, many);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_NEAR(a.average_length, b.average_length, 1e-9);
  ASSERT_EQ(a.length_dist.size(), b.length_dist.size());
  for (std::size_t l = 0; l < a.length_dist.size(); ++l) {
    EXPECT_NEAR(a.length_dist[l], b.length_dist[l], 1e-12) << "l=" << l;
  }
  ASSERT_EQ(a.betweenness_by_degree.size(),
            b.betweenness_by_degree.size());
  for (std::size_t k = 0; k < a.betweenness_by_degree.size(); ++k) {
    EXPECT_NEAR(a.betweenness_by_degree[k], b.betweenness_by_degree[k],
                1e-6 * (1.0 + a.betweenness_by_degree[k]))
        << "k=" << k;
  }
}

TEST(ParallelPropertiesTest, SampledSourcesIdenticalAcrossThreadCounts) {
  Rng rng(2);
  const CsrGraph g(GeneratePowerlawCluster(800, 3, 0.4, rng));
  PropertyOptions one;
  one.threads = 1;
  one.max_path_sources = 100;
  PropertyOptions many = one;
  many.threads = 6;
  const ShortestPathProperties a = ComputeShortestPathProperties(g, one);
  const ShortestPathProperties b = ComputeShortestPathProperties(g, many);
  // Same seed -> same source set -> identical aggregates (up to FP
  // summation order).
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_NEAR(a.average_length, b.average_length, 1e-9);
}

TEST(ParallelPropertiesTest, DefaultOptionsMatchOneThreadBitForBit) {
  // Per-worker accumulators merged in worker order make b̄(k) depend on
  // the worker count, so the default must be one worker: a library caller
  // gets the same bits on every machine.
  Rng rng(3);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, rng));
  PropertyOptions one;
  one.threads = 1;
  PropertyOptions four;
  four.threads = 4;
  const GraphProperties reference = ComputeProperties(g, one);
  ASSERT_NE(ComputeProperties(g, four).betweenness_by_degree,
            reference.betweenness_by_degree)
      << "4 workers must change b(k) here for the test to mean anything";

  const GraphProperties defaults = ComputeProperties(g);
  EXPECT_EQ(defaults.betweenness_by_degree, reference.betweenness_by_degree);
  EXPECT_EQ(defaults.average_path_length, reference.average_path_length);
  EXPECT_EQ(defaults.path_length_dist, reference.path_length_dist);
  EXPECT_EQ(defaults.diameter, reference.diameter);
}

TEST(ParallelPropertiesTest, MoreThreadsThanSources) {
  const CsrGraph g(GenerateCycle(6));
  PropertyOptions options;
  options.threads = 32;  // > n: must clamp, not crash
  const ShortestPathProperties sp = ComputeShortestPathProperties(g, options);
  EXPECT_EQ(sp.diameter, 3u);
}

}  // namespace
}  // namespace sgr
