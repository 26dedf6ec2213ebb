#include "dk/dk_construct.h"

#include <gtest/gtest.h>

#include <string>

#include "dk/dk_extract.h"
#include "estimation/estimators.h"
#include "graph/generators.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

#include "edge_array_hash.h"
#include "jdm_entries.h"

namespace sgr {
namespace {

TEST(DkConstructTest, RealizesExactTargetsFromEmpty) {
  // Extract (DV, JDM) from a real graph and rebuild from scratch: the
  // rebuilt graph must realize both exactly (the defining property of a
  // 2K-graph).
  Rng gen_rng(41);
  const Graph original = GeneratePowerlawCluster(300, 3, 0.4, gen_rng);
  const DegreeVector dv = ExtractDegreeVector(CsrGraph(original));
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(CsrGraph(original));

  Rng rng(42);
  const Graph rebuilt = Construct2kGraph(dv, jdm, rng);
  EXPECT_EQ(rebuilt.NumNodes(), original.NumNodes());
  EXPECT_EQ(rebuilt.NumEdges(), original.NumEdges());
  EXPECT_EQ(ExtractDegreeVector(CsrGraph(rebuilt)), dv);
  // JDM equality entry by entry.
  const JointDegreeMatrix rebuilt_jdm =
      ExtractJointDegreeMatrix(CsrGraph(rebuilt));
  EXPECT_EQ(JdmEntries(rebuilt_jdm), JdmEntries(jdm));
}

TEST(DkConstructTest, ExtendsSubgraphWithoutTouchingIt) {
  // Base: a path 0-1-2. Targets: grow it into a graph with 2 extra
  // degree-1 nodes and matching JDM.
  Graph base(3);
  base.AddEdge(0, 1);
  base.AddEdge(1, 2);
  const std::vector<std::uint32_t> targets = {2, 2, 2};
  // Final graph: cycle-ish with 2 added degree-1... keep it concrete:
  // n*(1) = 2, n*(2) = 3; m*(1,2) = 2, m*(2,2) = 2.
  DegreeVector n_star = {0, 2, 3};
  JointDegreeMatrix m_star;
  m_star.SetSymmetric(1, 2, 2);
  m_star.SetSymmetric(2, 2, 2);
  ASSERT_TRUE(m_star.SatisfiesJdm3(n_star));

  Rng rng(43);
  const Graph out = ConstructPreservingTargets(base, targets, n_star,
                                               m_star, rng);
  EXPECT_EQ(out.NumNodes(), 5u);
  EXPECT_EQ(out.NumEdges(), 4u);
  // Base edges survive with their ids.
  EXPECT_EQ(out.edge(0).u, 0u);
  EXPECT_EQ(out.edge(0).v, 1u);
  EXPECT_EQ(out.edge(1).u, 1u);
  EXPECT_EQ(out.edge(1).v, 2u);
  EXPECT_EQ(ExtractDegreeVector(CsrGraph(out)), n_star);
  const JointDegreeMatrix out_jdm = ExtractJointDegreeMatrix(CsrGraph(out));
  EXPECT_EQ(out_jdm.At(1, 2), 2);
  EXPECT_EQ(out_jdm.At(2, 2), 2);
}

TEST(DkConstructTest, RejectsTargetBelowSubgraphDegree) {
  Graph base(2);
  base.AddEdge(0, 1);
  const std::vector<std::uint32_t> targets = {0, 1};  // node 0 target 0 < 1
  DegreeVector n_star = {1, 1};
  JointDegreeMatrix m_star;
  Rng rng(44);
  EXPECT_THROW(
      ConstructPreservingTargets(base, targets, n_star, m_star, rng),
      std::logic_error);
}

TEST(DkConstructTest, EmptyTargetsYieldEmptyGraph) {
  // A fully empty target set is a legal degenerate input: no nodes, no
  // edges, no stub pools. This used to read past the end of the (empty)
  // stub-pool vector in the leftover check.
  Rng rng(52);
  const Graph g = Construct2kGraph({}, JointDegreeMatrix{}, rng);
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(DkConstructTest, RejectsInconsistentJdm) {
  // Stub counts cannot satisfy this JDM (JDM-3 violated).
  DegreeVector n_star = {0, 2};     // two degree-1 nodes
  JointDegreeMatrix m_star;
  m_star.SetSymmetric(1, 1, 3);     // needs 6 endpoint slots, only 2 exist
  Rng rng(45);
  EXPECT_THROW(Construct2kGraph(n_star, m_star, rng), std::logic_error);
}

TEST(DkConstructTest, RejectsJdm4ViolationAbsentFromTarget) {
  // m'(1,2) = 1 with no m*(1,2) entry at all: the sparse pair walk must
  // still visit the pair and name it, before any stub is drawn.
  Graph base(2);
  base.AddEdge(0, 1);
  const std::vector<std::uint32_t> targets = {1, 2};
  DegreeVector n_star = {0, 2, 2};
  JointDegreeMatrix m_star;
  m_star.SetSymmetric(2, 2, 2);
  Rng rng(53);
  try {
    ConstructPreservingTargets(base, targets, n_star, m_star, rng);
    FAIL() << "expected a JDM-4 violation";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("JDM-4 violated at (1,2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(DkConstructTest, RejectsDv3Violation) {
  Graph base(3);
  base.AddEdge(0, 1);
  base.AddEdge(1, 2);
  const std::vector<std::uint32_t> targets = {1, 2, 1};
  DegreeVector n_star = {0, 1, 1};  // fewer deg-1 targets than base has
  JointDegreeMatrix m_star;
  m_star.SetSymmetric(1, 2, 2);
  Rng rng(46);
  EXPECT_THROW(
      ConstructPreservingTargets(base, targets, n_star, m_star, rng),
      std::logic_error);
}

TEST(DkConstructTest, SubgraphClassEdgesCountsByTargetDegree) {
  Graph base(4);
  base.AddEdge(0, 1);
  base.AddEdge(2, 3);
  const std::vector<std::uint32_t> targets = {3, 5, 3, 3};
  const JointDegreeMatrix m_prime = SubgraphClassEdges(base, targets);
  EXPECT_EQ(m_prime.At(3, 5), 1);
  EXPECT_EQ(m_prime.At(3, 3), 1);
  EXPECT_EQ(m_prime.TotalEdges(), 2);
}

TEST(DkConstructTest, DiagonalPairsMayFormLoops) {
  // All stubs in one class: the constructor may wire loops/multi-edges,
  // which the problem definition allows; degree realization must still be
  // exact.
  DegreeVector n_star = {0, 0, 2};  // two degree-2 nodes
  JointDegreeMatrix m_star;
  m_star.SetSymmetric(2, 2, 2);
  Rng rng(47);
  const Graph g = Construct2kGraph(n_star, m_star, rng);
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(DkConstructTest, OneKRealizesDegreeVectorExactly) {
  Rng gen_rng(48);
  const Graph original = GeneratePowerlawCluster(400, 3, 0.4, gen_rng);
  const DegreeVector dv = ExtractDegreeVector(CsrGraph(original));
  Rng rng(49);
  const Graph rebuilt = Construct1kGraph(dv, rng);
  EXPECT_EQ(ExtractDegreeVector(CsrGraph(rebuilt)), dv);
  EXPECT_EQ(rebuilt.NumEdges(), original.NumEdges());
}

TEST(DkConstructTest, OneKRejectsOddDegreeSum) {
  Rng rng(50);
  EXPECT_THROW(Construct1kGraph({0, 1, 1}, rng), std::logic_error);
}

TEST(DkConstructTest, ZeroKPreservesNodesAndEdges) {
  Rng rng(51);
  const Graph g = Construct0kGraph(100, 250, rng);
  EXPECT_EQ(g.NumNodes(), 100u);
  EXPECT_EQ(g.NumEdges(), 250u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 5.0);
}

TEST(DkConstructTest, PreservingTargetsEdgeArrayIsFrozen) {
  // The whole proposed-method target chain on a seeded walk, then
  // Algorithm 5: the assembled edge array (RNG draws and class-pair
  // order) is pinned to the hashes of the dense pair-grid walk.
  const std::uint64_t expected[] = {
      0xd0f60eb97f8ca231ULL, 0x635832f9fc071d77ULL, 0x71d5e54db1e8525cULL};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng gen_rng(seed);
    const CsrGraph g(GeneratePowerlawCluster(1500, 4, 0.3, gen_rng));
    QueryOracle oracle(g);
    Rng rng(seed + 10);
    const SamplingList list = RandomWalkSample(oracle, 0, 150, rng);
    const Subgraph sub = BuildSubgraph(list);
    const LocalEstimates est = EstimateLocalProperties(list);
    TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
    const JointDegreeMatrix m_prime =
        SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
    const JointDegreeMatrix m_star =
        BuildTargetJdm(est, dv.n_star, m_prime, rng);
    const Graph built = ConstructPreservingTargets(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, rng);
    EXPECT_EQ(EdgeArrayHash(built), expected[seed - 1]) << "seed " << seed;
  }
}

class DkRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DkRoundTripTest, ExtractConstructRoundTrip) {
  Rng gen_rng(GetParam());
  const Graph original =
      GeneratePowerlawCluster(200 + 50 * (GetParam() % 5), 3, 0.5, gen_rng);
  const DegreeVector dv = ExtractDegreeVector(CsrGraph(original));
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(CsrGraph(original));
  Rng rng(GetParam() * 7 + 1);
  const Graph rebuilt = Construct2kGraph(dv, jdm, rng);
  EXPECT_EQ(ExtractDegreeVector(CsrGraph(rebuilt)), dv);
  EXPECT_TRUE(ExtractJointDegreeMatrix(CsrGraph(rebuilt)).SatisfiesJdm3(dv));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DkRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sgr
