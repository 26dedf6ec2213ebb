#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "graph/generators.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/random_walk.h"

namespace sgr {
namespace {

SamplingList Walk(const CsrGraph& g, std::size_t budget, std::uint64_t seed) {
  QueryOracle oracle(g);
  Rng rng(seed);
  return RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(g.NumNodes())), budget,
      rng);
}

RestorationOptions FastOptions() {
  RestorationOptions options;
  options.rewire.rewiring_coefficient = 10.0;
  return options;
}

class GjokaInvariantsTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GjokaInvariantsTest, OutputRealizesConsistentTargets) {
  Rng gen_rng(GetParam());
  const CsrGraph g(GenerateSocialGraph(800, 4, 0.4, 0.4, gen_rng));
  const SamplingList walk = Walk(g, 80, GetParam() + 77);
  Rng rng(GetParam());
  const RestorationResult r = RestoreGjoka(walk, FastOptions(), rng);

  // The generated graph must be internally consistent: its own extracted
  // degree vector and joint degree matrix satisfy JDM-3 (they always do
  // for a real graph) and the degree sum is even.
  const DegreeVector dv = ExtractDegreeVector(CsrGraph(r.graph));
  EXPECT_TRUE(SatisfiesDv1(dv));
  EXPECT_TRUE(SatisfiesDv2(dv));
  EXPECT_TRUE(ExtractJointDegreeMatrix(CsrGraph(r.graph)).SatisfiesJdm3(dv));

  // Scale tracks the estimates.
  EXPECT_NEAR(static_cast<double>(r.graph.NumNodes()),
              r.estimates.num_nodes, 0.4 * r.estimates.num_nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GjokaInvariantsTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RegimeTest, SubgraphSamplingWinsAtHugeBudgets) {
  // Paper conclusion (Section VII): if >= 50% of nodes can be queried,
  // subgraph sampling is (at least) competitive because G' is nearly the
  // whole graph. Check that the subgraph's average L1 becomes small in
  // that regime.
  Rng gen_rng(11);
  const CsrGraph g(GenerateSocialGraph(800, 4, 0.4, 0.4, gen_rng));
  const GraphProperties truth = ComputeProperties(g);

  const SamplingList big_walk = Walk(g, 640, 12);  // 80% queried
  const RestorationResult sub = RestoreBySubgraphSampling(big_walk);
  const double l1 = AverageDistance(
      PropertyDistances(truth, ComputeProperties(CsrGraph(sub.graph))));
  EXPECT_LT(l1, 0.12);
}

TEST(RegimeTest, SubgraphErrorShrinksWithBudget) {
  Rng gen_rng(13);
  const CsrGraph g(GenerateSocialGraph(800, 4, 0.4, 0.4, gen_rng));
  const GraphProperties truth = ComputeProperties(g);
  double previous = 1e9;
  for (const std::size_t budget : {40u, 160u, 640u}) {
    const RestorationResult sub =
        RestoreBySubgraphSampling(Walk(g, budget, 14));
    const double l1 = AverageDistance(
        PropertyDistances(truth, ComputeProperties(CsrGraph(sub.graph))));
    EXPECT_LT(l1, previous) << "budget " << budget;
    previous = l1;
  }
}

TEST(BoundaryTest, TinyWalkStillRestores) {
  // Minimal viable sample: a handful of queried nodes. The pipeline must
  // not crash and must produce a connected-ish usable graph.
  Rng gen_rng(15);
  const CsrGraph g(GenerateSocialGraph(500, 4, 0.4, 0.4, gen_rng));
  const SamplingList walk = Walk(g, 5, 16);
  Rng rng(17);
  const RestorationResult r = RestoreProposed(walk, FastOptions(), rng);
  EXPECT_GT(r.graph.NumNodes(), 5u);
  EXPECT_GT(r.graph.NumEdges(), 0u);
}

TEST(BoundaryTest, WalkOnTinyGraphs) {
  // Smallest supported structures.
  for (std::size_t n : {3u, 4u, 5u}) {
    const CsrGraph g(GenerateComplete(n));
    QueryOracle oracle(g);
    Rng rng(n);
    const SamplingList walk = RandomWalkSample(oracle, 0, n, rng);
    Rng method_rng(n + 1);
    const RestorationResult r =
        RestoreProposed(walk, FastOptions(), method_rng);
    EXPECT_GE(r.graph.NumNodes(), n);
  }
}

TEST(BoundaryTest, ProposedOnStarGraph) {
  // Extreme disassortativity: one hub, all leaves. Queried leaves pin the
  // hub's visible degree; the pipeline must respect Lemma 1 throughout.
  const CsrGraph g(GenerateStar(60));
  QueryOracle oracle(g);
  Rng rng(18);
  const SamplingList walk = RandomWalkSample(oracle, 1, 12, rng);
  Rng method_rng(19);
  const RestorationResult r =
      RestoreProposed(walk, FastOptions(), method_rng);
  // The generated graph must contain a hub at least as large as the
  // subgraph showed.
  std::size_t max_deg = 0;
  for (NodeId v = 0; v < r.graph.NumNodes(); ++v) {
    max_deg = std::max(max_deg, r.graph.Degree(v));
  }
  EXPECT_GE(max_deg, 11u);
}

}  // namespace
}  // namespace sgr
