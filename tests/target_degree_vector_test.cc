#include "restore/target_degree_vector.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "estimation/estimators.h"
#include "graph/generators.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

#include "sample_helpers.h"

namespace sgr {
namespace {

LocalEstimates SimpleEstimates() {
  LocalEstimates est;
  est.num_nodes = 10.0;
  est.average_degree = 2.0;
  est.degree_dist = {0.0, 0.4, 0.4, 0.2};  // k = 1, 2, 3
  return est;
}

TEST(TargetDvTest, EstimatesOnlyInitialization) {
  const LocalEstimates est = SimpleEstimates();
  const TargetDegreeVectorResult r =
      BuildTargetDegreeVectorFromEstimates(est);
  // n̂(1) = 4, n̂(2) = 4, n̂(3) = 2 -> degree sum 4 + 8 + 6 = 18 even.
  EXPECT_EQ(r.n_star, (DegreeVector{0, 4, 4, 2}));
  EXPECT_TRUE(SatisfiesDv2(r.n_star));
  EXPECT_TRUE(r.subgraph_target_degrees.empty());
}

TEST(TargetDvTest, PositiveMassForcesAtLeastOneNode) {
  LocalEstimates est;
  est.num_nodes = 100.0;
  est.degree_dist = {0.0, 0.999, 0.001};  // n̂(2) = 0.1 -> still 1 node
  const TargetDegreeVectorResult r =
      BuildTargetDegreeVectorFromEstimates(est);
  EXPECT_GE(r.n_star[2], 1);
}

TEST(TargetDvTest, ParityAdjustmentMakesSumEven) {
  LocalEstimates est;
  est.num_nodes = 5.0;
  est.degree_dist = {0.0, 0.2, 0.0, 0.8};  // n̂(1)=1, n̂(3)=4 -> sum 13 odd
  const TargetDegreeVectorResult r =
      BuildTargetDegreeVectorFromEstimates(est);
  EXPECT_TRUE(SatisfiesDv2(r.n_star));
  EXPECT_TRUE(SatisfiesDv1(r.n_star));
  // The bump lands on the odd degree with the smaller relative error
  // increase: Δ+(1) = 1 (1 -> 2 against n̂(1) = 1) vs Δ+(3) = 0.25
  // (4 -> 5 against n̂(3) = 4), so degree 3 is bumped: 13 + 3 = 16.
  EXPECT_EQ(DegreeVectorTotalDegree(r.n_star), 16);
}

TEST(TargetDvTest, DeltaPlusInfiniteForZeroMass) {
  const LocalEstimates est = SimpleEstimates();
  EXPECT_TRUE(std::isinf(DegreeDeltaPlus(est, 7, 0)));
  EXPECT_FALSE(std::isinf(DegreeDeltaPlus(est, 2, 4)));
}

TEST(TargetDvTest, DeltaPlusSignReflectsDistanceToEstimate) {
  const LocalEstimates est = SimpleEstimates();  // n̂(2) = 4
  EXPECT_LT(DegreeDeltaPlus(est, 2, 2), 0.0);  // moving 2->3 approaches 4
  EXPECT_GT(DegreeDeltaPlus(est, 2, 5), 0.0);  // moving 5->6 recedes
}

class TargetDvWalkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TargetDvWalkTest, SatisfiesAllConditionsOnRealWalks) {
  Rng gen_rng(GetParam());
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(GetParam() + 1000);
  const SamplingList list = RandomWalkSample(oracle, 0, 60, rng);
  const Subgraph sub = BuildSubgraph(list);
  const LocalEstimates est = EstimateLocalProperties(list);
  const TargetDegreeVectorResult r =
      BuildTargetDegreeVector(sub, est, rng);

  // DV-1 and DV-2.
  EXPECT_TRUE(SatisfiesDv1(r.n_star));
  EXPECT_TRUE(SatisfiesDv2(r.n_star));

  // DV-3: n*(k) >= #subgraph nodes with target degree k.
  DegreeVector n_prime(r.n_star.size(), 0);
  ASSERT_EQ(r.subgraph_target_degrees.size(), sub.graph.NumNodes());
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    const std::uint32_t d = r.subgraph_target_degrees[v];
    ASSERT_LT(d, r.n_star.size());
    ++n_prime[d];
  }
  for (std::size_t k = 0; k < r.n_star.size(); ++k) {
    EXPECT_GE(r.n_star[k], n_prime[k]) << "degree " << k;
  }

  // Lemma 1 consistency: queried exact, visible lower-bounded.
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    if (sub.IsQueried(v)) {
      EXPECT_EQ(r.subgraph_target_degrees[v], sub.graph.Degree(v));
    } else {
      EXPECT_GE(r.subgraph_target_degrees[v], sub.graph.Degree(v));
    }
  }

  // k*_max covers both sources.
  EXPECT_GE(r.k_star_max, est.MaxDegreeWithMass());
  EXPECT_GE(r.k_star_max + 0u, sub.graph.MaxDegree());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TargetDvWalkTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(TargetDvTest, VisibleHubGetsDegreeAtLeastSubgraphDegree) {
  // Construct a sampling list where a visible node has high subgraph
  // degree: a star queried at the leaves.
  // Star center 0 with leaves 1..6; query leaves 1, 2, 3 (walk hops
  // through the center but we only claim queried set semantics here).
  const SamplingList list =
      HandBuiltList(true, {1, 2, 3}, {{1, {0}}, {2, {0}}, {3, {0}}});
  const Subgraph sub = BuildSubgraph(list);
  LocalEstimates est;
  est.num_nodes = 7.0;
  est.degree_dist = {0.0, 6.0 / 7.0, 0.0, 0.0, 0.0, 0.0, 1.0 / 7.0};
  Rng rng(60);
  const TargetDegreeVectorResult r = BuildTargetDegreeVector(sub, est, rng);
  const auto center = static_cast<NodeId>(
      std::find(sub.to_original.begin(), sub.to_original.end(), NodeId{0}) -
      sub.to_original.begin());
  ASSERT_LT(center, sub.graph.NumNodes());
  EXPECT_FALSE(sub.IsQueried(center));
  EXPECT_GE(r.subgraph_target_degrees[center], 3u);
}

}  // namespace
}  // namespace sgr
