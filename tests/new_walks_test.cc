#include <gtest/gtest.h>

#include <numeric>
#include <unordered_map>

#include "estimation/estimators.h"
#include "graph/generators.h"
#include "sampling/frontier.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

#include "sample_helpers.h"

namespace sgr {
namespace {

TEST(MetropolisHastingsTest, ReachesBudget) {
  Rng gen_rng(1);
  const CsrGraph g(GeneratePowerlawCluster(500, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(2);
  const SamplingList list =
      MetropolisHastingsWalkSample(oracle, 0, 60, rng);
  EXPECT_GE(list.NumQueried(), 60u);
  EXPECT_TRUE(list.is_walk());
}

TEST(MetropolisHastingsTest, TrajectoryMovesOnlyAlongEdgesOrStays) {
  Rng gen_rng(3);
  const CsrGraph g(GeneratePowerlawCluster(400, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(4);
  const SamplingList list =
      MetropolisHastingsWalkSample(oracle, 5, 50, rng);
  for (std::size_t i = 0; i + 1 < list.Length(); ++i) {
    const NodeId a = list.OriginalId(list.Walk()[i]);
    const NodeId b = list.OriginalId(list.Walk()[i + 1]);
    EXPECT_TRUE(a == b || g.HasEdge(a, b)) << "step " << i;
  }
}

TEST(MetropolisHastingsTest, StationaryDistributionIsUniform) {
  // On a strongly inhomogeneous graph (a star), an MH walk visits the hub
  // and each leaf equally often, while a simple walk spends half its time
  // on the hub. Compare visit shares on a long trajectory.
  const CsrGraph g(GenerateStar(11));  // hub 0, 10 leaves
  QueryOracle oracle(g);
  Rng rng(5);
  const SamplingList list = MetropolisHastingsWalkSample(
      oracle, 0, /*unreachable*/ 12, rng, /*max_steps=*/60000);
  std::unordered_map<NodeId, std::size_t> visits;
  for (const NodeId v : Visits(list)) ++visits[v];
  const double hub_share =
      static_cast<double>(visits[0]) /
      static_cast<double>(list.Length());
  // Uniform stationary distribution -> hub share ~ 1/11 = 0.0909.
  EXPECT_NEAR(hub_share, 1.0 / 11.0, 0.02);
}

TEST(MetropolisHastingsTest, PlainMeanDegreeIsUnbiased) {
  // Under the uniform stationary distribution, the plain average of
  // visited degrees estimates the true average degree (no re-weighting).
  Rng gen_rng(6);
  const CsrGraph g(GeneratePowerlawCluster(1000, 4, 0.3, gen_rng));
  QueryOracle oracle(g);
  Rng rng(7);
  const SamplingList list = MetropolisHastingsWalkSample(
      oracle, 0, /*unreachable*/ g.NumNodes() + 1, rng,
      /*max_steps=*/40000);
  double mean = 0.0;
  for (const std::uint32_t c : list.Walk()) {
    mean += static_cast<double>(list.Degree(c));
  }
  mean /= static_cast<double>(list.Length());
  EXPECT_NEAR(mean, g.AverageDegree(), 0.12 * g.AverageDegree());
}

TEST(FrontierTest, ReachesBudgetWithMultipleWalkers) {
  Rng gen_rng(8);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(9);
  std::vector<NodeId> seeds = {0, 10, 20, 30, 40};
  const SamplingList list = FrontierSample(oracle, seeds, 80, rng);
  EXPECT_GE(list.NumQueried(), 80u);
}

TEST(FrontierTest, WorksAcrossDisconnectedComponents) {
  // Two disjoint cycles; a single walk would stay in its component, but
  // frontier sampling with seeds in both covers both.
  Graph g(20);
  for (NodeId v = 0; v < 10; ++v) {
    g.AddEdge(v, static_cast<NodeId>((v + 1) % 10));
  }
  for (NodeId v = 10; v < 20; ++v) {
    g.AddEdge(v, static_cast<NodeId>(10 + (v + 1 - 10) % 10));
  }
  const CsrGraph csr(g);
  QueryOracle oracle(csr);
  Rng rng(10);
  const SamplingList list = FrontierSample(oracle, {0, 10}, 20, rng, 4000);
  bool low = false;
  bool high = false;
  for (std::uint32_t c = 0; c < list.NumQueried(); ++c) {
    const NodeId v = list.OriginalId(c);
    low |= (v < 10);
    high |= (v >= 10);
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(FrontierTest, AverageDegreeEstimatorApplies) {
  // Frontier sampling preserves the edge-sampling law, so the re-weighted
  // average-degree estimator stays consistent.
  Rng gen_rng(11);
  const CsrGraph g(GeneratePowerlawCluster(1200, 4, 0.3, gen_rng));
  QueryOracle oracle(g);
  Rng rng(12);
  std::vector<NodeId> seeds;
  for (int i = 0; i < 10; ++i) {
    seeds.push_back(static_cast<NodeId>(rng.NextIndex(g.NumNodes())));
  }
  const SamplingList list = FrontierSample(oracle, seeds, 500, rng);
  EXPECT_NEAR(EstimateAverageDegree(list), g.AverageDegree(),
              0.15 * g.AverageDegree());
}

TEST(FrontierTest, SubgraphConstructionWorksOnFrontierSamples) {
  Rng gen_rng(13);
  const CsrGraph g(GeneratePowerlawCluster(500, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(14);
  const SamplingList list = FrontierSample(oracle, {1, 2, 3}, 60, rng);
  const Subgraph sub = BuildSubgraph(list);
  EXPECT_GE(sub.NumQueried(), 60u);
  for (const Edge& e : sub.graph.edges()) {
    EXPECT_TRUE(g.HasEdge(sub.to_original[e.u], sub.to_original[e.v]));
  }
}

}  // namespace
}  // namespace sgr
