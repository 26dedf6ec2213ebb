#include <gtest/gtest.h>

#include "estimation/estimators.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "sampling/random_walk.h"

namespace sgr {
namespace {

SamplingList MakeWalk(const CsrGraph& g, std::size_t budget,
                      std::uint64_t seed) {
  QueryOracle oracle(g);
  Rng rng(seed);
  return RandomWalkSample(oracle, 0, budget, rng);
}

TEST(EstimatorModesTest, HybridMatchesTeBelowThreshold) {
  Rng gen_rng(1);
  const CsrGraph g(GeneratePowerlawCluster(1000, 3, 0.4, gen_rng));
  const SamplingList walk = MakeWalk(g, 200, 2);

  EstimatorOptions hybrid;
  EstimatorOptions te_only;
  te_only.joint_mode = JointEstimatorMode::kTraversedEdgesOnly;
  const LocalEstimates h = EstimateLocalProperties(walk, hybrid);
  const LocalEstimates t = EstimateLocalProperties(walk, te_only);

  const double threshold = 2.0 * h.average_degree;
  for (const auto& [key, value] : h.joint_dist.values()) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (static_cast<double>(k) + static_cast<double>(kp) < threshold) {
      EXPECT_DOUBLE_EQ(value, t.joint_dist.At(k, kp))
          << "(" << k << "," << kp << ")";
    }
  }
}

TEST(EstimatorModesTest, HybridMatchesIeAboveThreshold) {
  Rng gen_rng(3);
  const CsrGraph g(GeneratePowerlawCluster(1000, 3, 0.4, gen_rng));
  const SamplingList walk = MakeWalk(g, 200, 4);

  EstimatorOptions hybrid;
  EstimatorOptions ie_only;
  ie_only.joint_mode = JointEstimatorMode::kInducedEdgesOnly;
  const LocalEstimates h = EstimateLocalProperties(walk, hybrid);
  const LocalEstimates i = EstimateLocalProperties(walk, ie_only);

  const double threshold = 2.0 * h.average_degree;
  for (const auto& [key, value] : h.joint_dist.values()) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (static_cast<double>(k) + static_cast<double>(kp) >= threshold) {
      EXPECT_DOUBLE_EQ(value, i.joint_dist.At(k, kp))
          << "(" << k << "," << kp << ")";
    }
  }
}

TEST(EstimatorModesTest, ModesShareMarginalEstimates) {
  // n̂, k̂̄, P̂(k), ĉ̄(k) are independent of the joint-estimator mode.
  Rng gen_rng(5);
  const CsrGraph g(GeneratePowerlawCluster(800, 3, 0.4, gen_rng));
  const SamplingList walk = MakeWalk(g, 150, 6);
  EstimatorOptions a;
  EstimatorOptions b;
  b.joint_mode = JointEstimatorMode::kInducedEdgesOnly;
  const LocalEstimates ea = EstimateLocalProperties(walk, a);
  const LocalEstimates eb = EstimateLocalProperties(walk, b);
  EXPECT_DOUBLE_EQ(ea.num_nodes, eb.num_nodes);
  EXPECT_DOUBLE_EQ(ea.average_degree, eb.average_degree);
  EXPECT_EQ(ea.degree_dist, eb.degree_dist);
  EXPECT_EQ(ea.clustering, eb.clustering);
}

TEST(EstimatorModesTest, RestorationOptionsPlumbEstimatorOptions) {
  // The facade must forward estimator options: a collision fraction of
  // ~0.5 leaves almost no admissible pairs, driving n̂ to the fallback and
  // changing the generated size versus the default.
  Rng gen_rng(7);
  const CsrGraph g(GeneratePowerlawCluster(900, 3, 0.4, gen_rng));
  const SamplingList walk = MakeWalk(g, 120, 8);

  RestorationOptions default_options;
  default_options.rewire.rewiring_coefficient = 0.0;
  RestorationOptions fallback_options = default_options;
  fallback_options.estimator.collision_threshold_fraction = 0.49;

  Rng rng1(9);
  Rng rng2(9);
  const RestorationResult a = RestoreProposed(walk, default_options, rng1);
  const RestorationResult b = RestoreProposed(walk, fallback_options, rng2);
  // Different collision thresholds -> different n̂ -> (almost surely)
  // different generated sizes.
  EXPECT_NE(a.estimates.num_nodes, b.estimates.num_nodes);
}

}  // namespace
}  // namespace sgr
