#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "graph/generators.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

namespace sgr {
namespace {

/// End-to-end checks of the paper's headline claims on a mid-size
/// synthetic social graph. Thresholds are deliberately loose so the tests
/// are robust across seeds; the benchmark harness reports the precise
/// numbers.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng gen_rng(0xFEED);
    original_ = new CsrGraph(GeneratePowerlawCluster(1200, 4, 0.5, gen_rng));
    properties_ = new GraphProperties(ComputeProperties(*original_));
  }
  static void TearDownTestSuite() {
    delete original_;
    delete properties_;
    original_ = nullptr;
    properties_ = nullptr;
  }

  static SamplingList Walk(std::uint64_t seed, double fraction) {
    QueryOracle oracle(*original_);
    Rng rng(seed);
    const auto budget = static_cast<std::size_t>(
        fraction * static_cast<double>(original_->NumNodes()));
    return RandomWalkSample(
        oracle, static_cast<NodeId>(rng.NextIndex(original_->NumNodes())),
        budget, rng);
  }

  static RestorationOptions Options() {
    RestorationOptions options;
    options.rewire.rewiring_coefficient = 50.0;
    return options;
  }

  static CsrGraph* original_;
  static GraphProperties* properties_;
};

CsrGraph* PipelineTest::original_ = nullptr;
GraphProperties* PipelineTest::properties_ = nullptr;

TEST_F(PipelineTest, ProposedPreservesTargetsExactly) {
  const SamplingList walk = Walk(1, 0.1);
  Rng rng(2);
  const RestorationResult r = RestoreProposed(walk, Options(), rng);

  // The generated graph realizes its own extracted DV/JDM consistently
  // (sanity: extraction is the inverse of construction).
  const DegreeVector dv = ExtractDegreeVector(r.graph);
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(r.graph);
  EXPECT_TRUE(jdm.SatisfiesJdm3(dv));

  // Node and edge counts stay within a loose band of the estimates.
  EXPECT_NEAR(static_cast<double>(r.graph.NumNodes()), r.estimates.num_nodes,
              0.35 * r.estimates.num_nodes);
}

TEST_F(PipelineTest, ProposedBeatsSubgraphSamplingOnAverageL1) {
  // The headline claim of the paper (Fig. 3 / Table III): lower average L1
  // than raw subgraph sampling at 10% queried. Averaged over 3 seeds to be
  // robust.
  double proposed_total = 0.0;
  double subgraph_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const SamplingList walk = Walk(seed * 100, 0.1);
    Rng rng(seed);
    const RestorationResult proposed =
        RestoreProposed(walk, Options(), rng);
    const RestorationResult subgraph = RestoreBySubgraphSampling(walk);
    proposed_total += AverageDistance(PropertyDistances(
        *properties_, ComputeProperties(CsrGraph(proposed.graph))));
    subgraph_total += AverageDistance(PropertyDistances(
        *properties_, ComputeProperties(CsrGraph(subgraph.graph))));
  }
  EXPECT_LT(proposed_total, subgraph_total);
}

TEST_F(PipelineTest, ProposedEstimatesGlobalSizeBetterThanSubgraph) {
  // The relative node-count error of the proposed method is below that of
  // subgraph sampling on average. One walk can go either way, so the claim
  // is checked on the mean over a fixed range of walk seeds.
  constexpr std::uint64_t kSeeds = 10;
  const double n = static_cast<double>(original_->NumNodes());
  double err_proposed = 0.0;
  double err_subgraph = 0.0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SamplingList walk = Walk(seed, 0.1);
    Rng rng(seed + 1000);
    const RestorationResult proposed = RestoreProposed(walk, Options(), rng);
    const RestorationResult subgraph = RestoreBySubgraphSampling(walk);
    err_proposed +=
        std::abs(static_cast<double>(proposed.graph.NumNodes()) - n) / n;
    err_subgraph +=
        std::abs(static_cast<double>(subgraph.graph.NumNodes()) - n) / n;
  }
  EXPECT_LT(err_proposed / kSeeds, err_subgraph / kSeeds);
}

TEST_F(PipelineTest, GjokaAndProposedMatchNodeCounts) {
  // Both generative methods consume the same estimates, so their sizes
  // should roughly agree (they differ in structure, not scale).
  const SamplingList walk = Walk(9, 0.1);
  Rng rng1(10);
  Rng rng2(10);
  const RestorationResult p = RestoreProposed(walk, Options(), rng1);
  const RestorationResult g = RestoreGjoka(walk, Options(), rng2);
  const double ratio = static_cast<double>(p.graph.NumNodes()) /
                       static_cast<double>(g.graph.NumNodes());
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST_F(PipelineTest, ProposedRewiringFasterThanGjoka) {
  // Section IV-E / Table IV: the proposed method's rewiring is faster
  // because |E~ \ E'| < |E~|. Compare attempts (deterministic) rather than
  // wall time (noisy).
  const SamplingList walk = Walk(11, 0.1);
  Rng rng1(12);
  Rng rng2(12);
  const RestorationResult p = RestoreProposed(walk, Options(), rng1);
  const RestorationResult g = RestoreGjoka(walk, Options(), rng2);
  EXPECT_LT(p.rewire_stats.attempts, g.rewire_stats.attempts);
}

TEST_F(PipelineTest, ProposedReproducesClusteringShape) {
  const SamplingList walk = Walk(13, 0.1);
  Rng rng(14);
  RestorationOptions options;
  options.rewire.rewiring_coefficient = 200.0;
  const RestorationResult r = RestoreProposed(walk, options, rng);
  // After rewiring, the distance to the *estimated* clustering must have
  // decreased from its post-construction value.
  EXPECT_LE(r.rewire_stats.final_distance,
            r.rewire_stats.initial_distance);
  // And the global clustering of the generated graph is in the right
  // ballpark (within 50% relative error of the original).
  const double c_gen = NetworkClusteringCoefficient(CsrGraph(r.graph));
  EXPECT_NEAR(c_gen, properties_->clustering_global,
              0.5 * properties_->clustering_global);
}

TEST_F(PipelineTest, LowQueryBudgetStillWorks) {
  // 1% queried (the YouTube regime): everything must still run and
  // produce a usable graph.
  const SamplingList walk = Walk(15, 0.01);
  Rng rng(16);
  const RestorationResult r = RestoreProposed(walk, Options(), rng);
  EXPECT_GT(r.graph.NumNodes(), walk.NumQueried());
  EXPECT_GT(r.graph.NumEdges(), 0u);
}

}  // namespace
}  // namespace sgr
