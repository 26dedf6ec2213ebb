#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "dk/dk_extract.h"
#include "exp/parallel.h"
#include "graph/generators.h"
#include "restore/rewirer.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// The invariants every rewiring run must keep (shared by the sequential
/// and the batched engine): degree sequence untouched, protected edge
/// ids untouched, monotone objective, accepted <= attempts.
void ExpectRewireInvariants(const Graph& before, const Graph& after,
                            std::size_t num_protected,
                            const RewireStats& stats) {
  ASSERT_EQ(after.NumNodes(), before.NumNodes());
  ASSERT_EQ(after.NumEdges(), before.NumEdges());
  for (NodeId v = 0; v < before.NumNodes(); ++v) {
    ASSERT_EQ(after.Degree(v), before.Degree(v)) << "node " << v;
  }
  for (std::size_t e = 0; e < num_protected && e < before.NumEdges(); ++e) {
    EXPECT_EQ(after.edge(e).u, before.edge(e).u) << "edge " << e;
    EXPECT_EQ(after.edge(e).v, before.edge(e).v) << "edge " << e;
  }
  EXPECT_LE(stats.accepted, stats.attempts);
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
}

/// Seeded generator matrix the property suite runs over: three models x
/// two protection regimes, all CI-sized.
struct MatrixCase {
  const char* model;
  std::uint64_t seed;
  double protect_fraction;
};

Graph BuildCase(const MatrixCase& c) {
  Rng rng(c.seed);
  if (std::string(c.model) == "powerlaw") {
    return GeneratePowerlawCluster(250, 3, 0.4, rng);
  }
  if (std::string(c.model) == "er") {
    return GenerateErdosRenyiGnm(250, 900, rng);
  }
  return GenerateCommunityGraph(240, 4, 3, 0.4, 6, rng);
}

TEST(ParallelRewireTest, PropertyMatrixKeepsInvariantsBothEngines) {
  const std::array<MatrixCase, 6> matrix = {
      MatrixCase{"powerlaw", 101, 0.0}, MatrixCase{"powerlaw", 102, 0.5},
      MatrixCase{"er", 103, 0.0},       MatrixCase{"er", 104, 0.3},
      MatrixCase{"community", 105, 0.0}, MatrixCase{"community", 106, 0.4}};
  for (const MatrixCase& c : matrix) {
    const Graph before = BuildCase(c);
    const auto num_protected = static_cast<std::size_t>(
        c.protect_fraction * static_cast<double>(before.NumEdges()));
    std::vector<double> target(before.MaxDegree() + 1, 0.3);

    RewireOptions options;
    options.rewiring_coefficient = 15.0;

    {
      Graph g = before;
      Rng rng(c.seed + 1000);
      const RewireStats stats =
          RewireToClustering(g, num_protected, target, options, rng);
      ExpectRewireInvariants(before, g, num_protected, stats);
      // The degree-matched 2-swap family preserves the JDM exactly.
      const JointDegreeMatrix jdm_before =
          ExtractJointDegreeMatrix(before);
      const JointDegreeMatrix jdm_after = ExtractJointDegreeMatrix(g);
      EXPECT_EQ(jdm_before.counts(), jdm_after.counts())
          << c.model << " seed " << c.seed << " (sequential)";
    }
    {
      Graph g = before;
      ParallelRewireOptions parallel;
      parallel.batch_size = 64;
      const RewireStats stats = RewireToClusteringParallel(
          g, num_protected, target, options, parallel, c.seed + 2000);
      ExpectRewireInvariants(before, g, num_protected, stats);
      const JointDegreeMatrix jdm_before =
          ExtractJointDegreeMatrix(before);
      const JointDegreeMatrix jdm_after = ExtractJointDegreeMatrix(g);
      EXPECT_EQ(jdm_before.counts(), jdm_after.counts())
          << c.model << " seed " << c.seed << " (batched)";
      EXPECT_EQ(stats.rounds,
                (stats.attempts + 63) / 64);  // ceil(R / batch)
      EXPECT_LE(stats.evaluated, stats.attempts);
    }
  }
}

TEST(ParallelRewireTest, ByteIdenticalAcrossThreadCounts) {
  Rng gen_rng(7);
  const Graph before = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 25.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 128;

  // Run 0 runs alone; runs 1-2 and 3-10 run concurrently, as trials do,
  // and must not depend on how many rewire at once.
  struct Run {
    Graph graph;
    RewireStats stats;
  };
  std::vector<Run> runs(11, Run{before, {}});
  const auto rewire = [&](std::size_t r) {
    runs[r].stats = RewireToClusteringParallel(
        runs[r].graph, 0, target, options, parallel, /*seed=*/0xD00D);
  };
  rewire(0);
  ParallelFor(2, 2, [&](std::size_t i) { rewire(1 + i); });
  ParallelFor(8, 8, [&](std::size_t i) { rewire(3 + i); });
  for (std::size_t r = 1; r < runs.size(); ++r) {
    // Byte-identical edge lists: same edges, same ids, same endpoint
    // order.
    ASSERT_EQ(runs[r].graph.NumEdges(), runs[0].graph.NumEdges());
    for (EdgeId e = 0; e < runs[0].graph.NumEdges(); ++e) {
      ASSERT_EQ(runs[r].graph.edge(e).u, runs[0].graph.edge(e).u)
          << "edge " << e << " at run " << r;
      ASSERT_EQ(runs[r].graph.edge(e).v, runs[0].graph.edge(e).v)
          << "edge " << e << " at run " << r;
    }
    // Identical stats, bit-for-bit (the distances are doubles).
    EXPECT_EQ(runs[r].stats.attempts, runs[0].stats.attempts);
    EXPECT_EQ(runs[r].stats.accepted, runs[0].stats.accepted);
    EXPECT_EQ(runs[r].stats.rounds, runs[0].stats.rounds);
    EXPECT_EQ(runs[r].stats.evaluated, runs[0].stats.evaluated);
    EXPECT_EQ(runs[r].stats.conflicts, runs[0].stats.conflicts);
    EXPECT_EQ(runs[r].stats.reevaluated, runs[0].stats.reevaluated);
    EXPECT_EQ(runs[r].stats.initial_distance,
              runs[0].stats.initial_distance);
    EXPECT_EQ(runs[r].stats.final_distance, runs[0].stats.final_distance);
  }
  // The run must do real work for the comparison to mean anything.
  EXPECT_GT(runs[0].stats.accepted, 0u);
}

TEST(ParallelRewireTest, MovesClusteringTowardTarget) {
  // Mirror of the sequential engine's quality test: scramble first, then
  // rewire back toward the original clustering profile.
  Rng gen_rng(8);
  Graph g = GeneratePowerlawCluster(400, 3, 0.6, gen_rng);
  const std::vector<double> target = ExtractDegreeDependentClustering(g);

  RewireOptions scramble;
  scramble.rewiring_coefficient = 30.0;
  std::vector<double> low(g.MaxDegree() + 1, 0.005);
  Rng rng(9);
  RewireToClustering(g, 0, low, scramble, rng);
  const double gap_before =
      NormalizedL1(target, ExtractDegreeDependentClustering(g));

  RewireOptions options;
  options.rewiring_coefficient = 100.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 256;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/0xC0FFEE);
  const double gap_after =
      NormalizedL1(target, ExtractDegreeDependentClustering(g));
  EXPECT_LT(gap_after, 0.7 * gap_before);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(ParallelRewireTest, FinalDistanceMatchesFreshComputation) {
  Rng gen_rng(10);
  Graph g = GeneratePowerlawCluster(250, 3, 0.5, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 20.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 32;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/77);
  const double expected =
      NormalizedL1(target, ExtractDegreeDependentClustering(g));
  EXPECT_NEAR(stats.final_distance, expected, 1e-6);
}

TEST(ParallelRewireTest, ConflictPathIsExercisedAndCounted) {
  // A small dense graph with a huge batch maximizes intra-round
  // collisions: commits must invalidate or re-derive later proposals of
  // the same round. Deterministic by construction, so the expectation is
  // stable.
  Rng gen_rng(11);
  Graph g = GeneratePowerlawCluster(80, 4, 0.6, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.02);
  RewireOptions options;
  options.rewiring_coefficient = 50.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 2048;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/0xFACE);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.reevaluated, 0u);
  EXPECT_LE(stats.accepted, stats.attempts);
}

TEST(ParallelRewireTest, ToleratesLoopsAndMultiEdgesAmongCandidates) {
  Rng gen_rng(20);
  Graph g = GeneratePowerlawCluster(150, 3, 0.4, gen_rng);
  g.AddEdge(0, 0);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // parallel
  g.AddEdge(5, 5);
  const Graph before = g;

  std::vector<double> target(g.MaxDegree() + 1, 0.2);
  RewireOptions options;
  options.rewiring_coefficient = 40.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 64;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/21);
  ExpectRewireInvariants(before, g, 0, stats);
}

TEST(ParallelRewireTest, ZeroBatchFallsBackToDefault) {
  Rng gen_rng(30);
  Graph g = GeneratePowerlawCluster(120, 3, 0.3, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.1);
  RewireOptions options;
  options.rewiring_coefficient = 5.0;
  ParallelRewireOptions parallel;  // batch_size = 0
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/3);
  EXPECT_EQ(stats.rounds, (stats.attempts + kDefaultRewireBatch - 1) /
                              kDefaultRewireBatch);
}

// ---------------------------------------------------------------------------
// Regression tests for the satellite fixes (both engines).
// ---------------------------------------------------------------------------

TEST(ParallelRewireTest, ResyncIntervalZeroMeansNeverResync) {
  // A modulo by zero here used to be undefined behavior in the
  // sequential loop.
  Rng gen_rng(40);
  Graph g = GeneratePowerlawCluster(100, 3, 0.4, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.2);
  RewireOptions options;
  options.rewiring_coefficient = 5.0;
  options.resync_interval = 0;
  {
    Graph copy = g;
    Rng rng(41);
    const RewireStats stats =
        RewireToClustering(copy, 0, target, options, rng);
    EXPECT_EQ(stats.attempts, static_cast<std::size_t>(
                                  5.0 * static_cast<double>(g.NumEdges())));
    EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
  }
  {
    Graph copy = g;
    ParallelRewireOptions parallel;
    parallel.batch_size = 32;
    const RewireStats stats = RewireToClusteringParallel(
        copy, 0, target, options, parallel, /*seed=*/42);
    EXPECT_GT(stats.rounds, 0u);
    EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
  }
}

TEST(ParallelRewireTest, ProtectingMoreEdgesThanExistIsANoOp) {
  // num_protected_edges > |E~| used to underflow the candidate count and
  // request ~2^64 attempts.
  Rng gen_rng(50);
  Graph g = GeneratePowerlawCluster(60, 3, 0.3, gen_rng);
  const Graph before = g;
  std::vector<double> target(g.MaxDegree() + 1, 0.5);
  RewireOptions options;
  for (const std::size_t num_protected :
       {g.NumEdges(), g.NumEdges() + 1, g.NumEdges() + 1000}) {
    {
      Graph copy = g;
      Rng rng(51);
      const RewireStats stats = RewireToClustering(
          copy, num_protected, target, options, rng);
      EXPECT_EQ(stats.attempts, 0u);
      EXPECT_EQ(stats.accepted, 0u);
      EXPECT_EQ(stats.initial_distance, 0.0);
    }
    {
      Graph copy = g;
      ParallelRewireOptions parallel;
      parallel.batch_size = 16;
      const RewireStats stats = RewireToClusteringParallel(
          copy, num_protected, target, options, parallel, /*seed=*/52);
      EXPECT_EQ(stats.attempts, 0u);
      EXPECT_EQ(stats.accepted, 0u);
      EXPECT_EQ(stats.rounds, 0u);
    }
  }
  // The graph is untouched either way.
  for (EdgeId e = 0; e < before.NumEdges(); ++e) {
    EXPECT_EQ(g.edge(e).u, before.edge(e).u);
    EXPECT_EQ(g.edge(e).v, before.edge(e).v);
  }
}

}  // namespace
}  // namespace sgr
