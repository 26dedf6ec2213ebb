#include <gtest/gtest.h>

#include <tuple>

#include "dk/dk_construct.h"
#include "dk/dk_extract.h"
#include "estimation/estimators.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "restore/rewirer.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

#include "jdm_entries.h"

namespace sgr {
namespace {

/// Property-based sweep: the full restoration invariant set across graph
/// families, sizes, and query budgets. Every combination must satisfy
/// every realization condition and the structural containment guarantees
/// of Sections IV-B..IV-E.
class RestorationInvariantsTest
    : public ::testing::TestWithParam<
          std::tuple<int /*family*/, std::size_t /*n*/,
                     double /*fraction*/, std::uint64_t /*seed*/>> {
 protected:
  static Graph MakeGraph(int family, std::size_t n, Rng& rng) {
    switch (family) {
      case 0:
        return GeneratePowerlawCluster(n, 3, 0.5, rng);
      case 1:
        return GenerateBarabasiAlbert(n, 3, rng);
      default:
        return GenerateCommunityGraph(n, 3, 3, 0.4, n / 20 + 2, rng);
    }
  }
};

TEST_P(RestorationInvariantsTest, FullInvariantSuite) {
  const auto [family, n, fraction, seed] = GetParam();
  Rng gen_rng(seed * 1313 + family);
  // Community graphs may be disconnected in rare seeds; walk inside the
  // LCC to satisfy the access model's connectivity assumption.
  const CsrGraph original =
      PreprocessDataset(CsrGraph(MakeGraph(family, n, gen_rng)));

  QueryOracle oracle(original);
  Rng rng(seed);
  const auto budget = static_cast<std::size_t>(std::max(
      8.0, fraction * static_cast<double>(original.NumNodes())));
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(original.NumNodes())),
      budget, rng);

  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);

  // Phase 1 invariants.
  TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
  ASSERT_TRUE(SatisfiesDv1(dv.n_star));
  ASSERT_TRUE(SatisfiesDv2(dv.n_star));

  // Phase 2 invariants.
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, dv.n_star, m_prime, rng);
  ASSERT_TRUE(m_star.SatisfiesJdm1());
  ASSERT_TRUE(m_star.SatisfiesJdm2());
  ASSERT_TRUE(m_star.SatisfiesJdm3(dv.n_star));
  ASSERT_TRUE(m_star.Dominates(m_prime));
  ASSERT_TRUE(SatisfiesDv2(dv.n_star));  // still even after growth

  // Phase 3 invariants: exact realization + subgraph containment.
  Graph built = ConstructPreservingTargets(
      sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, rng);
  ASSERT_EQ(ExtractDegreeVector(CsrGraph(built)), dv.n_star);
  ASSERT_EQ(JdmEntries(ExtractJointDegreeMatrix(CsrGraph(built))),
            JdmEntries(m_star));
  for (EdgeId e = 0; e < sub.graph.NumEdges(); ++e) {
    ASSERT_EQ(built.edge(e).u, sub.graph.edge(e).u);
    ASSERT_EQ(built.edge(e).v, sub.graph.edge(e).v);
  }

  // Phase 4 invariants: rewiring preserves DV, JDM, and E'.
  RewireOptions options;
  options.rewiring_coefficient = 10.0;
  RewireToClustering(built, sub.graph.NumEdges(), est.clustering, options,
                     rng);
  ASSERT_EQ(ExtractDegreeVector(CsrGraph(built)), dv.n_star);
  ASSERT_TRUE(
      ExtractJointDegreeMatrix(CsrGraph(built)).SatisfiesJdm3(dv.n_star));
  for (EdgeId e = 0; e < sub.graph.NumEdges(); ++e) {
    ASSERT_EQ(built.edge(e).u, sub.graph.edge(e).u);
    ASSERT_EQ(built.edge(e).v, sub.graph.edge(e).v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RestorationInvariantsTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(300, 800),
                       ::testing::Values(0.05, 0.15),
                       ::testing::Values(1, 2, 3)));

/// Estimator consistency sweep: as the walk covers the whole graph, the
/// re-weighted estimates converge to the truth.
class EstimatorConsistencyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorConsistencyTest, NearFullWalkRecoversLocalProperties) {
  Rng gen_rng(GetParam());
  const CsrGraph g(GeneratePowerlawCluster(400, 3, 0.5, gen_rng));
  QueryOracle oracle(g);
  Rng rng(GetParam() + 31);
  // Query 95% of nodes: estimates should be close to exact.
  const SamplingList walk = RandomWalkSample(
      oracle, 0, static_cast<std::size_t>(0.95 * g.NumNodes()), rng);
  const LocalEstimates est = EstimateLocalProperties(walk);
  EXPECT_NEAR(est.average_degree, g.AverageDegree(),
              0.05 * g.AverageDegree());
  EXPECT_NEAR(est.num_nodes, static_cast<double>(g.NumNodes()),
              0.15 * static_cast<double>(g.NumNodes()));
  // Degree distribution L1 below 0.2.
  const DegreeVector dv = ExtractDegreeVector(g);
  double l1 = 0.0;
  for (std::size_t k = 0;
       k < std::max(dv.size(), est.degree_dist.size()); ++k) {
    const double truth =
        k < dv.size() ? static_cast<double>(dv[k]) /
                            static_cast<double>(g.NumNodes())
                      : 0.0;
    const double guess = k < est.degree_dist.size() ? est.degree_dist[k]
                                                    : 0.0;
    l1 += std::abs(truth - guess);
  }
  EXPECT_LT(l1, 0.2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorConsistencyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace sgr
