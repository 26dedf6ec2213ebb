#include "restore/simplify.h"

#include <gtest/gtest.h>

#include "dk/dk_extract.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "sampling/random_walk.h"

namespace sgr {
namespace {

TEST(SimplifyTest, AlreadySimpleIsUntouched) {
  Rng gen_rng(1);
  Graph g = GeneratePowerlawCluster(200, 3, 0.4, gen_rng);
  const std::size_t edges = g.NumEdges();
  Rng rng(2);
  const SimplifyStats stats = SimplifyByRewiring(g, 0, rng);
  EXPECT_EQ(stats.offending_before, 0u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(g.NumEdges(), edges);
}

TEST(SimplifyTest, RemovesParallelEdgesAndLoops) {
  // A dense simple substrate gives the repair swaps plenty of partners.
  Rng gen_rng(3);
  Graph g = GeneratePowerlawCluster(300, 4, 0.3, gen_rng);
  // Offenders at late (low-degree, populous-class) nodes: these always
  // have degree-matched swap partners.
  g.AddEdge(250, 251);
  g.AddEdge(250, 251);  // parallel bundle
  g.AddEdge(260, 260);  // loop
  g.AddEdge(270, 270);  // loop
  Rng rng(4);
  const SimplifyStats stats = SimplifyByRewiring(g, 0, rng);
  EXPECT_GT(stats.offending_before, 0u);
  EXPECT_EQ(stats.offending_after, 0u);
  EXPECT_TRUE(g.IsSimple());
}

TEST(SimplifyTest, PreservesDegreesAndJdm) {
  Rng gen_rng(5);
  Graph g = GeneratePowerlawCluster(300, 4, 0.3, gen_rng);
  g.AddEdge(2, 3);
  g.AddEdge(2, 3);
  g.AddEdge(11, 11);
  const DegreeVector dv = ExtractDegreeVector(g);
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(g);
  Rng rng(6);
  SimplifyByRewiring(g, 0, rng);
  EXPECT_EQ(ExtractDegreeVector(g), dv);
  const JointDegreeMatrix after = ExtractJointDegreeMatrix(g);
  for (const auto& [key, count] : jdm.counts()) {
    EXPECT_EQ(after.counts().count(key) > 0 ? after.counts().at(key) : 0,
              count);
  }
}

TEST(SimplifyTest, ProtectedEdgesStayPut) {
  Rng gen_rng(7);
  Graph g = GeneratePowerlawCluster(200, 4, 0.3, gen_rng);
  const std::size_t protected_count = g.NumEdges();
  std::vector<Edge> frozen(g.edges().begin(), g.edges().end());
  g.AddEdge(4, 4);
  g.AddEdge(5, 6);
  g.AddEdge(5, 6);
  Rng rng(8);
  SimplifyByRewiring(g, protected_count, rng);
  for (std::size_t e = 0; e < protected_count; ++e) {
    EXPECT_EQ(g.edge(e).u, frozen[e].u);
    EXPECT_EQ(g.edge(e).v, frozen[e].v);
  }
}

TEST(SimplifyTest, FacadeFlagReducesOffensesSubstantially) {
  // The pass is best-effort: when the *estimated* JDM demands more
  // (k, k')-edges than distinct node pairs exist (a real occurrence with
  // noisy high-degree estimates — the relaxed realization conditions of
  // Section IV-C allow it), some multi-edges are fundamentally stuck.
  // Require a substantial reduction rather than simplicity.
  Rng gen_rng(9);
  const CsrGraph original(GenerateSocialGraph(800, 4, 0.4, 0.4, gen_rng));
  QueryOracle oracle(original);
  Rng rng(10);
  const SamplingList walk = RandomWalkSample(oracle, 0, 80, rng);

  auto count_offenses = [](const Graph& g) {
    std::size_t total = 0;
    for (const Edge& e : g.edges()) {
      if (e.u == e.v || g.CountEdges(e.u, e.v) > 1) ++total;
    }
    return total;
  };

  RestorationOptions options;
  options.rewire.rewiring_coefficient = 10.0;
  Rng rng_plain(11);
  const RestorationResult plain =
      RestoreProposed(walk, options, rng_plain);
  options.simplify_output = true;
  Rng rng_simplified(11);
  const RestorationResult simplified =
      RestoreProposed(walk, options, rng_simplified);

  const std::size_t before = count_offenses(plain.graph);
  const std::size_t after = count_offenses(simplified.graph);
  ASSERT_GT(before, 0u);
  EXPECT_LT(after, (before + 1) / 2);  // at least halved
}

TEST(SimplifyTest, OffenseNeverIncreases) {
  Rng gen_rng(12);
  Graph g = GeneratePowerlawCluster(150, 3, 0.4, gen_rng);
  for (int i = 0; i < 10; ++i) {
    const NodeId v = static_cast<NodeId>(gen_rng.NextIndex(150));
    g.AddEdge(v, v);
  }
  Rng rng(13);
  const SimplifyStats stats =
      SimplifyByRewiring(g, 0, rng, /*max_rounds=*/3, /*attempts_per_edge=*/8);
  EXPECT_LE(stats.offending_after, stats.offending_before);
}

}  // namespace
}  // namespace sgr
