#include "sampling/non_backtracking.h"

#include <gtest/gtest.h>

#include "estimation/estimators.h"
#include "graph/generators.h"
#include "sampling/random_walk.h"

namespace sgr {
namespace {

TEST(NonBacktrackingTest, NeverBacktracksOnDegreeTwoPlus) {
  Rng gen_rng(1);
  const CsrGraph g(GeneratePowerlawCluster(400, 3, 0.4, gen_rng));
  // Minimum degree 3: no backtracking should ever occur.
  QueryOracle oracle(g);
  Rng rng(2);
  const SamplingList list =
      NonBacktrackingWalkSample(oracle, 0, 100, rng);
  for (std::size_t i = 2; i < list.Length(); ++i) {
    EXPECT_NE(list.Walk()[i], list.Walk()[i - 2])
        << "backtracked at step " << i;
  }
}

TEST(NonBacktrackingTest, BacktracksOnlyAtLeaves) {
  // On a path, interior nodes force forward motion; the walk must sweep
  // to an end before turning around.
  const CsrGraph g(GeneratePath(10));
  QueryOracle oracle(g);
  Rng rng(3);
  const SamplingList list =
      NonBacktrackingWalkSample(oracle, 5, 10, rng, 200);
  for (std::size_t i = 2; i < list.Length(); ++i) {
    if (list.Walk()[i] == list.Walk()[i - 2]) {
      // Turning around is only legal at the path's endpoints.
      const NodeId turn = list.OriginalId(list.Walk()[i - 1]);
      EXPECT_EQ(g.Degree(turn), 1u) << "illegal backtrack at step " << i;
    }
  }
}

TEST(NonBacktrackingTest, ReachesBudget) {
  Rng gen_rng(4);
  const CsrGraph g(GeneratePowerlawCluster(500, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(5);
  const SamplingList list =
      NonBacktrackingWalkSample(oracle, 0, 80, rng);
  EXPECT_EQ(list.NumQueried(), 80u);
  EXPECT_TRUE(list.is_walk());
}

TEST(NonBacktrackingTest, CoversFasterThanSimpleWalk) {
  // Query efficiency is NBRW's selling point: to query the same number of
  // distinct nodes it needs (on average) fewer steps than the simple walk.
  Rng gen_rng(6);
  const CsrGraph g(GeneratePowerlawCluster(1000, 3, 0.4, gen_rng));
  double srw_steps = 0.0;
  double nbrw_steps = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    {
      QueryOracle oracle(g);
      Rng rng(100 + seed);
      srw_steps += static_cast<double>(
          RandomWalkSample(oracle, 0, 200, rng).Length());
    }
    {
      QueryOracle oracle(g);
      Rng rng(100 + seed);
      nbrw_steps += static_cast<double>(
          NonBacktrackingWalkSample(oracle, 0, 200, rng).Length());
    }
  }
  EXPECT_LT(nbrw_steps, srw_steps);
}

TEST(NonBacktrackingTest, DegreeEstimatorStillUnbiased) {
  // The node-level stationary distribution of NBRW is still
  // degree-proportional, so k̂̄ converges to the true average degree.
  Rng gen_rng(7);
  const CsrGraph g(GeneratePowerlawCluster(1500, 4, 0.3, gen_rng));
  QueryOracle oracle(g);
  Rng rng(8);
  const SamplingList list =
      NonBacktrackingWalkSample(oracle, 0, 700, rng);
  EXPECT_NEAR(EstimateAverageDegree(list), g.AverageDegree(),
              0.15 * g.AverageDegree());
}

TEST(NonBacktrackingTest, CorrectedClusteringEstimatorConverges) {
  // With the NBRW normalizer (divide by k instead of k-1) the clustering
  // estimate converges to the truth; on K_7 that is exactly 1, while the
  // uncorrected SRW normalizer would report (k-1)/k * ... a biased value.
  const CsrGraph g(GenerateComplete(7));
  QueryOracle oracle(g);
  Rng rng(9);
  const SamplingList list = NonBacktrackingWalkSample(
      oracle, 0, /*unreachable*/ 8, rng, /*max_steps=*/40000);
  EstimatorOptions corrected;
  corrected.walk_type = WalkType::kNonBacktracking;
  const LocalEstimates est = EstimateLocalProperties(list, corrected);
  ASSERT_GE(est.clustering.size(), 7u);
  EXPECT_NEAR(est.clustering[6], 1.0, 0.03);

  EstimatorOptions uncorrected;  // defaults to kSimple
  const LocalEstimates biased = EstimateLocalProperties(list, uncorrected);
  // Uncorrected: off by k/(k-1) = 6/5.
  EXPECT_NEAR(biased.clustering[6], 1.2, 0.05);
}

}  // namespace
}  // namespace sgr
