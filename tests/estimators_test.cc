#include "estimation/estimators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "graph/generators.h"
#include "sampling/random_walk.h"

#include "sample_helpers.h"

namespace sgr {
namespace {

/// Walks `target` queried nodes on `g` and returns the estimates.
LocalEstimates EstimateOn(const CsrGraph& g, std::size_t target,
                          std::uint64_t seed) {
  QueryOracle oracle(g);
  Rng rng(seed);
  const SamplingList list = RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(g.NumNodes())), target, rng);
  return EstimateLocalProperties(list);
}

TEST(EstimatorsTest, AverageDegreeOnRegularGraphIsExact) {
  // On a k-regular graph 1/Φ̄ = k for every walk.
  const CsrGraph g(GenerateCycle(100));
  QueryOracle oracle(g);
  Rng rng(1);
  const SamplingList list = RandomWalkSample(oracle, 0, 20, rng);
  EXPECT_DOUBLE_EQ(EstimateAverageDegree(list), 2.0);
}

TEST(EstimatorsTest, AverageDegreeConvergesOnHeavyTail) {
  Rng gen_rng(2);
  const CsrGraph g(GeneratePowerlawCluster(2000, 4, 0.3, gen_rng));
  const LocalEstimates est = EstimateOn(g, 600, 3);
  EXPECT_NEAR(est.average_degree, g.AverageDegree(),
              0.15 * g.AverageDegree());
}

TEST(EstimatorsTest, NumNodesConvergesWithLargeSample) {
  Rng gen_rng(4);
  const CsrGraph g(GeneratePowerlawCluster(1500, 4, 0.3, gen_rng));
  const LocalEstimates est = EstimateOn(g, 700, 5);
  EXPECT_NEAR(est.num_nodes, static_cast<double>(g.NumNodes()),
              0.30 * static_cast<double>(g.NumNodes()));
}

TEST(EstimatorsTest, NumNodesFallbackWhenNoCollision) {
  // A 3-step walk on a huge cycle has no lag-M collision; the estimator
  // must fall back to the number of distinct seen nodes.
  const CsrGraph g(GenerateCycle(1000));
  const SamplingList list = HandBuiltList(
      true, {0, 1, 2}, {{0, {999, 1}}, {1, {0, 2}}, {2, {1, 3}}});
  const double n_hat = EstimateNumNodes(list, 123.0);
  EXPECT_DOUBLE_EQ(n_hat, 123.0);
}

TEST(EstimatorsTest, DegreeDistributionSumsToOne) {
  Rng gen_rng(6);
  const CsrGraph g(GeneratePowerlawCluster(1000, 3, 0.4, gen_rng));
  const LocalEstimates est = EstimateOn(g, 300, 7);
  double total = 0.0;
  for (double p : est.degree_dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EstimatorsTest, DegreeDistributionUnbiasedOnRegularGraph) {
  const CsrGraph g(GenerateCycle(50));
  const LocalEstimates est = EstimateOn(g, 25, 8);
  ASSERT_GE(est.degree_dist.size(), 3u);
  EXPECT_DOUBLE_EQ(est.degree_dist[2], 1.0);
}

TEST(EstimatorsTest, DegreeDistributionCloseOnHeavyTail) {
  Rng gen_rng(9);
  const CsrGraph g(GeneratePowerlawCluster(2000, 4, 0.3, gen_rng));
  const LocalEstimates est = EstimateOn(g, 800, 10);
  // Compare the mass at the minimum degree (the largest class).
  std::vector<std::size_t> count(g.MaxDegree() + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) ++count[g.Degree(v)];
  const double true_p4 =
      static_cast<double>(count[4]) / static_cast<double>(g.NumNodes());
  ASSERT_GT(est.degree_dist.size(), 4u);
  EXPECT_NEAR(est.degree_dist[4], true_p4, 0.25 * true_p4);
}

TEST(EstimatorsTest, JointDistributionIsSymmetric) {
  Rng gen_rng(11);
  const CsrGraph g(GeneratePowerlawCluster(800, 3, 0.5, gen_rng));
  const LocalEstimates est = EstimateOn(g, 250, 12);
  for (const auto& [key, p] : est.joint_dist.values()) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    EXPECT_DOUBLE_EQ(est.joint_dist.At(kp, k), p);
  }
}

TEST(EstimatorsTest, JointDistributionMassIsReasonable) {
  Rng gen_rng(13);
  const CsrGraph g(GeneratePowerlawCluster(1500, 4, 0.3, gen_rng));
  const LocalEstimates est = EstimateOn(g, 700, 14);
  // The hybrid estimator is unbiased (Appendix A); the full ordered mass
  // Σ_k Σ_k' P̂(k,k') should be near 1.
  EXPECT_NEAR(est.joint_dist.TotalMass(), 1.0, 0.35);
}

TEST(EstimatorsTest, JointDistributionExactOnCompleteGraph) {
  // K_6: all nodes have degree 5, all edges join (5,5); all mass sits on
  // (5,5). A long walk is needed because the hybrid picks the (noisier)
  // induced-edge estimator for this high-degree pair.
  const CsrGraph g(GenerateComplete(6));
  QueryOracle oracle(g);
  Rng rng(15);
  const SamplingList list =
      RandomWalkSample(oracle, 0, /*unreachable*/ 7, rng,
                       /*max_steps=*/20000);
  const LocalEstimates est = EstimateLocalProperties(list);
  EXPECT_NEAR(est.joint_dist.At(5, 5), 1.0, 0.05);
}

TEST(EstimatorsTest, ClusteringZeroOnTriangleFree) {
  const CsrGraph g(GenerateCycle(60));
  const LocalEstimates est = EstimateOn(g, 30, 16);
  for (double c : est.clustering) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(EstimatorsTest, ClusteringOneOnCompleteGraph) {
  // ĉ̄(k) is unbiased, not exact: on K_7 the interior term A_{prev,next}
  // is 0 exactly when the walk backtracks (probability 1/6 per step), and
  // the (k-1) normalizer assumes that rate. A long walk converges to 1.
  const CsrGraph g(GenerateComplete(7));
  QueryOracle oracle(g);
  Rng rng(17);
  const SamplingList list =
      RandomWalkSample(oracle, 0, /*unreachable*/ 8, rng,
                       /*max_steps=*/40000);
  const LocalEstimates est = EstimateLocalProperties(list);
  ASSERT_GE(est.clustering.size(), 7u);
  EXPECT_NEAR(est.clustering[6], 1.0, 0.03);
}

TEST(EstimatorsTest, ClusteringTracksHolmeKimLevel) {
  Rng gen_rng(18);
  const CsrGraph g(GeneratePowerlawCluster(2000, 4, 0.6, gen_rng));
  const LocalEstimates est = EstimateOn(g, 800, 19);
  // ĉ̄(4) should be positive and within a loose band of the true c̄(4).
  std::vector<double> sums(g.MaxDegree() + 1, 0.0);
  std::vector<std::size_t> counts(g.MaxDegree() + 1, 0);
  // True c̄(4) via wedge checks.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) != 4) continue;
    const NeighborSpan nbrs = g.neighbors(v);
    std::size_t closed = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (g.HasEdge(nbrs[i], nbrs[j])) ++closed;
      }
    }
    sums[4] += static_cast<double>(closed) / 6.0;  // C(4,2) = 6 wedges
    ++counts[4];
  }
  const double true_c4 = sums[4] / static_cast<double>(counts[4]);
  ASSERT_GT(est.clustering.size(), 4u);
  EXPECT_GT(est.clustering[4], 0.0);
  EXPECT_NEAR(est.clustering[4], true_c4, 0.5 * true_c4);
}

TEST(EstimatorsTest, MaxDegreeWithMassMatchesWalk) {
  Rng gen_rng(20);
  const CsrGraph g(GeneratePowerlawCluster(500, 3, 0.3, gen_rng));
  QueryOracle oracle(g);
  Rng rng(21);
  const SamplingList list = RandomWalkSample(oracle, 0, 100, rng);
  const LocalEstimates est = EstimateLocalProperties(list);
  std::size_t max_walked = 0;
  for (const std::uint32_t c : list.Walk()) {
    max_walked = std::max(max_walked, list.Degree(c));
  }
  EXPECT_EQ(est.MaxDegreeWithMass(), max_walked);
}

TEST(EstimatorsTest, EstimatedEdgeCountUsesHandshake) {
  LocalEstimates est;
  est.num_nodes = 100.0;
  est.average_degree = 4.0;
  est.degree_dist = {0.0, 0.0, 0.0, 0.0, 1.0};
  est.joint_dist.SetSymmetric(4, 4, 1.0);
  // m(4,4) = n k̄ P / µ = 100*4*1/2 = 200 edges.
  EXPECT_DOUBLE_EQ(est.EstimatedEdgeCount(4, 4), 200.0);
  est.joint_dist.SetSymmetric(3, 4, 0.5);
  EXPECT_DOUBLE_EQ(est.EstimatedEdgeCount(3, 4), 200.0);
}

TEST(EstimatorsTest, GlobalClusteringWeightsByDegreeDistribution) {
  LocalEstimates est;
  est.degree_dist = {0.0, 0.5, 0.3, 0.2};
  est.clustering = {0.0, 0.0, 0.4, 0.9};
  // Degree-1 nodes contribute 0; ĉ̄ = 0.3*0.4 + 0.2*0.9.
  EXPECT_DOUBLE_EQ(est.EstimatedGlobalClustering(), 0.3 * 0.4 + 0.2 * 0.9);
}

TEST(EstimatorsTest, GlobalClusteringNearOneOnCompleteGraph) {
  const CsrGraph g(GenerateComplete(7));
  QueryOracle oracle(g);
  Rng rng(23);
  const SamplingList list =
      RandomWalkSample(oracle, 0, /*unreachable*/ 8, rng,
                       /*max_steps=*/30000);
  const LocalEstimates est = EstimateLocalProperties(list);
  EXPECT_NEAR(est.EstimatedGlobalClustering(), 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Degenerate inputs: defined sentinels instead of UB / NaN propagation
// ---------------------------------------------------------------------------

TEST(EstimatorsEdgeCaseTest, EmptyListYieldsZeroEstimates) {
  const SamplingList empty = HandBuiltList(true, {}, {});
  const LocalEstimates est = EstimateLocalProperties(empty);
  EXPECT_DOUBLE_EQ(est.num_nodes, 0.0);
  EXPECT_DOUBLE_EQ(est.average_degree, 0.0);
  EXPECT_TRUE(est.degree_dist.empty());
  EXPECT_TRUE(est.clustering.empty());
  EXPECT_TRUE(est.joint_dist.values().empty());
  EXPECT_DOUBLE_EQ(EstimateAverageDegree(empty), 0.0);
  EXPECT_DOUBLE_EQ(EstimateNumNodes(empty, 42.0), 42.0);
}

TEST(EstimatorsEdgeCaseTest, SingleNodeCrawlYieldsPlainStatistics) {
  // A budget of one queried node produces a length-1 walk: too short for
  // any re-weighted estimator, so the defined fallback is plain counts.
  const SamplingList list = HandBuiltList(true, {5}, {{5, {1, 2, 3}}});
  const LocalEstimates est = EstimateLocalProperties(list);
  EXPECT_DOUBLE_EQ(est.num_nodes, 4.0);  // 5 plus its three neighbors
  EXPECT_DOUBLE_EQ(est.average_degree, 3.0);
  ASSERT_EQ(est.degree_dist.size(), 4u);
  EXPECT_DOUBLE_EQ(est.degree_dist[3], 1.0);
  for (double c : est.clustering) EXPECT_DOUBLE_EQ(c, 0.0);
  for (double value : est.degree_dist) EXPECT_TRUE(std::isfinite(value));
}

TEST(EstimatorsEdgeCaseTest, TwoStepWalkYieldsPlainStatistics) {
  const SamplingList list =
      HandBuiltList(true, {0, 1}, {{0, {1, 2}}, {1, {0}}});
  const LocalEstimates est = EstimateLocalProperties(list);
  EXPECT_DOUBLE_EQ(est.num_nodes, 3.0);  // {0, 1, 2}
  EXPECT_DOUBLE_EQ(est.average_degree, 1.5);
  ASSERT_EQ(est.degree_dist.size(), 3u);
  EXPECT_DOUBLE_EQ(est.degree_dist[1], 0.5);
  EXPECT_DOUBLE_EQ(est.degree_dist[2], 0.5);
  EXPECT_DOUBLE_EQ(EstimateNumNodes(list, 9.0), 9.0);  // r < 3
}

TEST(EstimatorsEdgeCaseTest, ZeroEdgeCrawlYieldsZeroAverageDegree) {
  // Every queried node isolated (a zero-edge crawl): no harmonic mean
  // exists; the documented sentinel is zero estimates, never NaN/inf.
  const SamplingList list =
      HandBuiltList(true, {0, 1, 2, 0}, {{0, {}}, {1, {}}, {2, {}}});
  EXPECT_DOUBLE_EQ(EstimateAverageDegree(list), 0.0);
  const LocalEstimates est = EstimateLocalProperties(list);
  EXPECT_DOUBLE_EQ(est.average_degree, 0.0);
  EXPECT_TRUE(std::isfinite(est.num_nodes));
  for (double value : est.degree_dist) EXPECT_TRUE(std::isfinite(value));
  for (double value : est.clustering) EXPECT_TRUE(std::isfinite(value));
}

TEST(EstimatorsEdgeCaseTest, NonWalkSampleIsRejectedNotMisestimated) {
  // Re-weighting a BFS/snowball crawl silently produces biased numbers;
  // the contract is an exception, not garbage.
  const SamplingList crawl = HandBuiltList(
      false, {0, 1, 2, 3},
      {{0, {1, 2}}, {1, {0, 3}}, {2, {0}}, {3, {1}}});
  EXPECT_THROW(EstimateLocalProperties(crawl), std::invalid_argument);
  EXPECT_DOUBLE_EQ(EstimateAverageDegree(crawl), 0.0);
  EXPECT_DOUBLE_EQ(EstimateNumNodes(crawl, 7.0), 7.0);
}

TEST(EstimatorsEdgeCaseTest, ThreeStepWalkUsesTheRealEstimators) {
  // r = 3 is the smallest length the re-weighted machinery accepts; all
  // outputs must be finite.
  const SamplingList list = HandBuiltList(
      true, {0, 1, 0}, {{0, {1, 2}}, {1, {0, 2}}, {2, {0, 1}}});
  const LocalEstimates est = EstimateLocalProperties(list);
  EXPECT_TRUE(std::isfinite(est.num_nodes));
  EXPECT_TRUE(std::isfinite(est.average_degree));
  EXPECT_GT(est.average_degree, 0.0);
  for (double value : est.degree_dist) EXPECT_TRUE(std::isfinite(value));
  for (double value : est.clustering) EXPECT_TRUE(std::isfinite(value));
  for (const auto& [key, value] : est.joint_dist.values()) {
    (void)key;
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(EstimatorsTest, EstimatesImproveWithWalkLength) {
  Rng gen_rng(22);
  const CsrGraph g(GeneratePowerlawCluster(2000, 4, 0.3, gen_rng));
  double short_err = 0.0;
  double long_err = 0.0;
  const double n = static_cast<double>(g.NumNodes());
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    short_err += std::abs(EstimateOn(g, 100, 100 + seed).num_nodes - n) / n;
    long_err += std::abs(EstimateOn(g, 1000, 200 + seed).num_nodes - n) / n;
  }
  EXPECT_LT(long_err, short_err);
}

}  // namespace
}  // namespace sgr
