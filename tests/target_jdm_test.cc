#include "restore/target_jdm.h"

#include <gtest/gtest.h>

#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "graph/generators.h"
#include "restore/target_degree_vector.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

namespace sgr {
namespace {

TEST(TargetJdmTest, DeltaInfiniteWithoutMass) {
  LocalEstimates est;
  est.num_nodes = 10;
  est.average_degree = 2;
  EXPECT_TRUE(std::isinf(JdmDelta(est, 2, 3, 0, +1)));
}

TEST(TargetJdmTest, DeltaSignsTrackEstimate) {
  LocalEstimates est;
  est.num_nodes = 10;
  est.average_degree = 2;
  est.joint_dist.SetSymmetric(1, 2, 0.5);  // m̂(1,2) = 10
  EXPECT_LT(JdmDelta(est, 1, 2, 5, +1), 0.0);   // 5 -> 6 approaches 10
  EXPECT_GT(JdmDelta(est, 1, 2, 15, +1), 0.0);  // 15 -> 16 recedes
  EXPECT_LT(JdmDelta(est, 1, 2, 15, -1), 0.0);  // 15 -> 14 approaches
  EXPECT_GT(JdmDelta(est, 1, 2, 5, -1), 0.0);   // 5 -> 4 recedes
}

TEST(TargetJdmTest, EstimatesOnlySatisfiesJdm123) {
  // Hand-built consistent estimates.
  LocalEstimates est;
  est.num_nodes = 12.0;
  est.average_degree = 2.0;
  est.degree_dist = {0.0, 0.5, 0.25, 0.25};
  est.joint_dist.SetSymmetric(1, 2, 0.25);
  est.joint_dist.SetSymmetric(1, 3, 0.25);
  est.joint_dist.SetSymmetric(2, 3, 0.25);
  est.joint_dist.SetSymmetric(3, 3, 0.125);
  est.joint_dist.SetSymmetric(2, 2, 0.125);
  TargetDegreeVectorResult dv = BuildTargetDegreeVectorFromEstimates(est);
  Rng rng(70);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, dv.n_star, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm1());
  EXPECT_TRUE(m_star.SatisfiesJdm2());
  EXPECT_TRUE(m_star.SatisfiesJdm3(dv.n_star));
}

class TargetJdmWalkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TargetJdmWalkTest, FullPipelineSatisfiesAllConditions) {
  Rng gen_rng(GetParam());
  const CsrGraph g(GeneratePowerlawCluster(700, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(GetParam() + 5000);
  const SamplingList list = RandomWalkSample(oracle, 0, 70, rng);
  const Subgraph sub = BuildSubgraph(list);
  const LocalEstimates est = EstimateLocalProperties(list);
  TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, dv.n_star, m_prime, rng);

  EXPECT_TRUE(m_star.SatisfiesJdm1());
  EXPECT_TRUE(m_star.SatisfiesJdm2());
  EXPECT_TRUE(m_star.SatisfiesJdm3(dv.n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime)) << "JDM-4 violated";

  // The degree vector still satisfies its own conditions after any growth
  // by Algorithm 3.
  EXPECT_TRUE(SatisfiesDv1(dv.n_star));
  EXPECT_TRUE(SatisfiesDv2(dv.n_star));

  // And the full target pair must be realizable around the subgraph (the
  // ultimate acceptance test: Algorithm 5 succeeds).
  EXPECT_NO_THROW({
    const Graph built = ConstructPreservingTargets(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, rng);
    (void)built;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, TargetJdmWalkTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(TargetJdmTest, GjokaVariantRealizableFromEmpty) {
  Rng gen_rng(71);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(72);
  const SamplingList list = RandomWalkSample(oracle, 0, 80, rng);
  const LocalEstimates est = EstimateLocalProperties(list);
  TargetDegreeVectorResult dv = BuildTargetDegreeVectorFromEstimates(est);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, dv.n_star, rng);
  EXPECT_NO_THROW({
    const Graph built = Construct2kGraph(dv.n_star, m_star, rng);
    EXPECT_EQ(static_cast<std::int64_t>(built.NumNodes()),
              DegreeVectorNodes(dv.n_star));
  });
}

TEST(TargetJdmTest, EdgeTotalsStayNearEstimate) {
  Rng gen_rng(73);
  const CsrGraph g(GeneratePowerlawCluster(800, 4, 0.3, gen_rng));
  QueryOracle oracle(g);
  Rng rng(74);
  const SamplingList list = RandomWalkSample(oracle, 0, 200, rng);
  const LocalEstimates est = EstimateLocalProperties(list);
  TargetDegreeVectorResult dv = BuildTargetDegreeVectorFromEstimates(est);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, dv.n_star, rng);
  const double m_hat = est.num_nodes * est.average_degree / 2.0;
  EXPECT_NEAR(static_cast<double>(m_star.TotalEdges()), m_hat,
              0.5 * m_hat);
}

}  // namespace
}  // namespace sgr
