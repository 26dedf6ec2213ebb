#include "restore/rewirer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "exp/parallel.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {
namespace {

TEST(RewirerTest, NoCandidatesIsNoOp) {
  Graph g = GenerateCycle(5);
  Rng rng(1);
  RewireOptions options;
  const RewireStats stats =
      RewireToClustering(g, g.NumEdges(), {0.0, 0.0, 1.0}, options, rng);
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_EQ(stats.accepted, 0u);
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
    Graph copy = g;
    Rng rng(51);
    const RewireStats stats =
        RewireToClustering(copy, num_protected, target, options, rng);
    EXPECT_EQ(stats.attempts, 0u) << num_protected;
    EXPECT_EQ(stats.accepted, 0u) << num_protected;
    EXPECT_EQ(stats.initial_distance, 0.0) << num_protected;
    for (EdgeId e = 0; e < before.NumEdges(); ++e) {
      EXPECT_EQ(copy.edge(e).u, before.edge(e).u);
      EXPECT_EQ(copy.edge(e).v, before.edge(e).v);
    }
  }
}

TEST(RewirerTest, RejectsAnAttemptCountAbove2To63) {
  // R = rc * |E~rew| >= 2^63 used to wrap llround to LLONG_MIN, i.e. about
  // 9.2e18 attempts: the run never finished.
  Rng gen_rng(60);
  const Graph before = GeneratePowerlawCluster(60, 3, 0.3, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.2);
  for (const double rc : {1e300, 9.3e18 / static_cast<double>(
                                      before.NumEdges())}) {
    Graph g = before;
    Rng rng(61);
    RewireOptions options;
    options.rewiring_coefficient = rc;
    try {
      RewireToClustering(g, 0, target, options, rng);
      ADD_FAILURE() << "rc " << rc << " did not throw";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("rc"), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(before.NumEdges()) +
                             " candidate edges"),
                std::string::npos)
          << message;
    }
  }
}

TEST(RewirerTest, PreservesDegreeVectorAndJdm) {
  Rng gen_rng(2);
  Graph g = GeneratePowerlawCluster(300, 3, 0.4, gen_rng);
  const DegreeVector dv_before = ExtractDegreeVector(g);
  const JointDegreeMatrix jdm_before = ExtractJointDegreeMatrix(g);

  std::vector<double> target(g.MaxDegree() + 1, 0.3);
  Rng rng(3);
  RewireOptions options;
  options.rewiring_coefficient = 20.0;
  RewireToClustering(g, 0, target, options, rng);

  EXPECT_EQ(ExtractDegreeVector(g), dv_before);
  const JointDegreeMatrix jdm_after = ExtractJointDegreeMatrix(g);
  for (const auto& [key, count] : jdm_before.counts()) {
    EXPECT_EQ(jdm_after.At(static_cast<std::uint32_t>(key >> 32),
                           static_cast<std::uint32_t>(key & 0xffffffffu)),
              count);
  }
}

TEST(RewirerTest, ProtectedEdgesAreNeverTouched) {
  Rng gen_rng(4);
  Graph g = GeneratePowerlawCluster(200, 3, 0.5, gen_rng);
  const std::size_t protected_count = g.NumEdges() / 2;
  std::vector<Edge> frozen(g.edges().begin(),
                           g.edges().begin() + protected_count);

  std::vector<double> target(g.MaxDegree() + 1, 0.0);  // push down
  Rng rng(5);
  RewireOptions options;
  options.rewiring_coefficient = 30.0;
  RewireToClustering(g, protected_count, target, options, rng);

  for (std::size_t e = 0; e < protected_count; ++e) {
    EXPECT_EQ(g.edge(e).u, frozen[e].u);
    EXPECT_EQ(g.edge(e).v, frozen[e].v);
  }
}

TEST(RewirerTest, ObjectiveNeverIncreases) {
  Rng gen_rng(6);
  Graph g = GeneratePowerlawCluster(300, 3, 0.2, gen_rng);
  // Target far from present: high clustering everywhere.
  std::vector<double> target(g.MaxDegree() + 1, 0.5);
  Rng rng(7);
  RewireOptions options;
  options.rewiring_coefficient = 50.0;
  const RewireStats stats = RewireToClustering(g, 0, target, options, rng);
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
}

TEST(RewirerTest, MovesClusteringTowardTarget) {
  // Start from a low-clustering graph, target the clustering of a
  // Holme-Kim graph with the same degree structure: rewiring should close
  // a substantial fraction of the gap.
  Rng gen_rng(8);
  Graph g = GeneratePowerlawCluster(400, 3, 0.6, gen_rng);
  const std::vector<double> target = ExtractDegreeDependentClustering(g);

  // Scramble: rewire toward a near-zero (but positive-mass) target first
  // to destroy clustering. An all-zero target would be a no-op: with
  // Σ ĉ̄ = 0 there is nothing to optimize.
  Rng rng(9);
  RewireOptions scramble;
  scramble.rewiring_coefficient = 30.0;
  std::vector<double> low(g.MaxDegree() + 1, 0.005);
  RewireToClustering(g, 0, low, scramble, rng);
  const double gap_before = NormalizedL1(
      target, ExtractDegreeDependentClustering(g));

  RewireOptions options;
  options.rewiring_coefficient = 100.0;
  const RewireStats stats = RewireToClustering(g, 0, target, options, rng);
  const double gap_after = NormalizedL1(
      target, ExtractDegreeDependentClustering(g));
  EXPECT_LT(gap_after, 0.7 * gap_before);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(RewirerTest, FinalDistanceMatchesFreshComputation) {
  Rng gen_rng(10);
  Graph g = GeneratePowerlawCluster(250, 3, 0.5, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.25);
  Rng rng(11);
  RewireOptions options;
  options.rewiring_coefficient = 20.0;
  const RewireStats stats = RewireToClustering(g, 0, target, options, rng);

  // Recompute D from scratch and compare with the incrementally
  // maintained value.
  const std::vector<double> present = ExtractDegreeDependentClustering(g);
  const double expected = NormalizedL1(target, present);
  EXPECT_NEAR(stats.final_distance, expected, 1e-6);
}

TEST(RewirerTest, ToleratesLoopsAndMultiEdgesAmongCandidates) {
  // Generated graphs may contain self-loops and parallel edges (the
  // problem definition allows them); the rewirer must handle them without
  // corrupting degrees.
  Rng gen_rng(20);
  Graph g = GeneratePowerlawCluster(150, 3, 0.4, gen_rng);
  g.AddEdge(0, 0);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // parallel
  g.AddEdge(5, 5);
  const DegreeVector dv_before = ExtractDegreeVector(g);

  std::vector<double> target(g.MaxDegree() + 1, 0.2);
  Rng rng(21);
  RewireOptions options;
  options.rewiring_coefficient = 40.0;
  const RewireStats stats = RewireToClustering(g, 0, target, options, rng);
  EXPECT_EQ(ExtractDegreeVector(g), dv_before);
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
}

TEST(RewirerTest, AttemptsFollowRcCoefficient) {
  Rng gen_rng(12);
  Graph g = GeneratePowerlawCluster(100, 3, 0.3, gen_rng);
  Rng rng(13);
  RewireOptions options;
  options.rewiring_coefficient = 7.0;
  const RewireStats stats =
      RewireToClustering(g, 0, {0.0, 0.0, 0.1}, options, rng);
  EXPECT_EQ(stats.attempts, static_cast<std::size_t>(
                                7.0 * static_cast<double>(g.NumEdges())));
}

/// The invariants every rewiring run must keep: degree sequence and JDM
/// untouched, protected edge ids untouched, monotone objective, accepted
/// <= attempts.
void ExpectRewireInvariants(const Graph& before, const Graph& after,
                            std::size_t num_protected,
                            const RewireStats& stats,
                            const std::string& label) {
  ASSERT_EQ(after.NumNodes(), before.NumNodes()) << label;
  ASSERT_EQ(after.NumEdges(), before.NumEdges()) << label;
  for (NodeId v = 0; v < before.NumNodes(); ++v) {
    ASSERT_EQ(after.Degree(v), before.Degree(v)) << label << " node " << v;
  }
  for (std::size_t e = 0; e < num_protected && e < before.NumEdges(); ++e) {
    EXPECT_EQ(after.edge(e).u, before.edge(e).u) << label << " edge " << e;
    EXPECT_EQ(after.edge(e).v, before.edge(e).v) << label << " edge " << e;
  }
  // The degree-matched 2-swap family preserves the JDM exactly.
  EXPECT_EQ(ExtractJointDegreeMatrix(before).counts(),
            ExtractJointDegreeMatrix(after).counts())
      << label;
  EXPECT_LE(stats.accepted, stats.attempts) << label;
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9) << label;
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

TEST(RewirerTest, PropertyMatrixKeepsInvariants) {
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
    Graph g = before;
    Rng rng(c.seed + 1000);
    const RewireStats stats =
        RewireToClustering(g, num_protected, target, options, rng);
    ExpectRewireInvariants(before, g, num_protected, stats,
                           std::string(c.model) + " seed " +
                               std::to_string(c.seed));
  }
}

TEST(RewirerTest, CurveSamplesMatchFromScratchAnalyzers) {
  // A sparse graph with loops and parallel edges, so the samples see
  // components split and multiplicity-weighted triangles.
  Rng gen_rng(16);
  Graph before = GeneratePowerlawCluster(200, 1, 0.5, gen_rng);
  before.AddEdge(3, 3);
  before.AddEdge(4, 5);
  before.AddEdge(4, 5);
  std::vector<double> target(before.MaxDegree() + 1, 0.3);

  // R = 16 * |E|, so sample k lands exactly on attempt R * (k + 1) / 16
  // = (k + 1) * |E|: an untracked run with rc = k + 1 stops there.
  RewireOptions tracked;
  tracked.rewiring_coefficient = static_cast<double>(kConvergenceSamples);
  tracked.track_properties = true;
  Graph g_tracked = before;
  Rng rng_tracked(0xC0DE);
  const RewireStats stats =
      RewireToClustering(g_tracked, 0, target, tracked, rng_tracked);
  ASSERT_EQ(kConvergenceSamples, stats.curve.size());
  EXPECT_GT(stats.accepted, 0u);

  std::size_t max_components = 0;
  for (std::size_t k = 0; k < kConvergenceSamples; ++k) {
    RewireOptions prefix;
    prefix.rewiring_coefficient = static_cast<double>(k + 1);
    Graph g = before;
    Rng rng(0xC0DE);
    RewireToClustering(g, 0, target, prefix, rng);

    const ConvergenceSample& sample = stats.curve[k];
    EXPECT_EQ((k + 1) * before.NumEdges(), sample.attempts) << "sample " << k;
    EXPECT_EQ(NetworkClusteringCoefficient(CsrGraph(g)),
              sample.clustering_global)
        << "sample " << k;
    const ComponentsResult components = ConnectedComponents(g);
    EXPECT_EQ(components.sizes.size(), sample.components) << "sample " << k;
    EXPECT_EQ(components.sizes[components.largest], sample.lcc)
        << "sample " << k;
    max_components = std::max(max_components, sample.components);
  }
  // The swaps must actually have split the graph for the component
  // columns to mean anything.
  EXPECT_GT(max_components, 1u);
}

TEST(RewirerTest, ByteIdenticalAcrossThreadCounts) {
  Rng gen_rng(7);
  const Graph before = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 25.0;

  // Run 0 runs alone; runs 1-2 and 3-10 run concurrently, as trials do,
  // each on its own Rng seeded alike, and must not depend on how many
  // rewire at once.
  struct Run {
    Graph graph;
    RewireStats stats;
  };
  std::vector<Run> runs(11, Run{before, {}});
  const auto rewire = [&](std::size_t r) {
    Rng rng(0xD00D);
    runs[r].stats =
        RewireToClustering(runs[r].graph, 0, target, options, rng);
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
    EXPECT_EQ(runs[r].stats.initial_distance,
              runs[0].stats.initial_distance);
    EXPECT_EQ(runs[r].stats.final_distance, runs[0].stats.final_distance);
  }
  // The run must do real work for the comparison to mean anything.
  EXPECT_GT(runs[0].stats.accepted, 0u);
}

TEST(RewirerTest, TrackedRewireByteIdenticalAcrossThreads) {
  Rng gen_rng(7);
  const Graph before = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 25.0;
  options.track_properties = true;

  // Run 0 runs alone; runs 1-2 and 3-10 run concurrently, as trials do,
  // each on its own Rng seeded alike.
  struct Run {
    Graph graph;
    RewireStats stats;
  };
  std::vector<Run> runs(11, Run{before, {}});
  const auto rewire = [&](std::size_t r) {
    Rng rng(0xD00D);
    runs[r].stats =
        RewireToClustering(runs[r].graph, 0, target, options, rng);
  };
  rewire(0);
  ParallelFor(2, 2, [&](std::size_t i) { rewire(1 + i); });
  ParallelFor(8, 8, [&](std::size_t i) { rewire(3 + i); });
  ASSERT_EQ(kConvergenceSamples, runs[0].stats.curve.size());
  EXPECT_GT(runs[0].stats.accepted, 0u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].graph.NumEdges(), runs[0].graph.NumEdges());
    for (EdgeId e = 0; e < runs[0].graph.NumEdges(); ++e) {
      ASSERT_EQ(runs[r].graph.edge(e).u, runs[0].graph.edge(e).u)
          << "edge " << e << " at run " << r;
      ASSERT_EQ(runs[r].graph.edge(e).v, runs[0].graph.edge(e).v)
          << "edge " << e << " at run " << r;
    }
    EXPECT_EQ(runs[r].stats.attempts, runs[0].stats.attempts);
    EXPECT_EQ(runs[r].stats.accepted, runs[0].stats.accepted);
    EXPECT_EQ(runs[r].stats.initial_distance,
              runs[0].stats.initial_distance);
    EXPECT_EQ(runs[r].stats.final_distance, runs[0].stats.final_distance);
    EXPECT_EQ(runs[r].stats.stopped_early, runs[0].stats.stopped_early);
    // The convergence curve must agree bit-for-bit, doubles included.
    ASSERT_EQ(runs[r].stats.curve.size(), runs[0].stats.curve.size());
    for (std::size_t s = 0; s < runs[0].stats.curve.size(); ++s) {
      EXPECT_EQ(runs[r].stats.curve[s].attempts,
                runs[0].stats.curve[s].attempts)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].objective,
                runs[0].stats.curve[s].objective)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].clustering_global,
                runs[0].stats.curve[s].clustering_global)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].components,
                runs[0].stats.curve[s].components)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].lcc, runs[0].stats.curve[s].lcc)
          << "sample " << s;
    }
  }
}

TEST(RewirerTest, TrackingIsPureObservationSequential) {
  Rng gen_rng(12);
  const Graph before = GeneratePowerlawCluster(200, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.2);
  RewireOptions plain;
  plain.rewiring_coefficient = 20.0;
  RewireOptions tracked = plain;
  tracked.track_properties = true;

  Graph g_plain = before;
  Rng rng_plain(0xABC);
  const RewireStats stats_plain =
      RewireToClustering(g_plain, 0, target, plain, rng_plain);

  Graph g_tracked = before;
  Rng rng_tracked(0xABC);
  const RewireStats stats_tracked =
      RewireToClustering(g_tracked, 0, target, tracked, rng_tracked);

  // Identical proposal stream, decisions, and output: tracking is pure
  // observation.
  ASSERT_EQ(g_plain.NumEdges(), g_tracked.NumEdges());
  for (EdgeId e = 0; e < g_plain.NumEdges(); ++e) {
    ASSERT_EQ(g_plain.edge(e).u, g_tracked.edge(e).u) << "edge " << e;
    ASSERT_EQ(g_plain.edge(e).v, g_tracked.edge(e).v) << "edge " << e;
  }
  EXPECT_EQ(stats_plain.attempts, stats_tracked.attempts);
  EXPECT_EQ(stats_plain.accepted, stats_tracked.accepted);
  EXPECT_EQ(stats_plain.initial_distance, stats_tracked.initial_distance);
  EXPECT_EQ(stats_plain.final_distance, stats_tracked.final_distance);
  // Only the curve differs: absent untracked, 16 samples tracked.
  EXPECT_TRUE(stats_plain.curve.empty());
  EXPECT_FALSE(stats_plain.stopped_early);
  ASSERT_EQ(kConvergenceSamples, stats_tracked.curve.size());
  EXPECT_FALSE(stats_tracked.stopped_early);
  EXPECT_EQ(stats_tracked.attempts, stats_tracked.curve.back().attempts);
  // The curve's objective is non-increasing (only improving swaps
  // commit) and ends at the final distance, modulo incremental FP drift.
  for (std::size_t s = 1; s < stats_tracked.curve.size(); ++s) {
    EXPECT_LE(stats_tracked.curve[s].objective,
              stats_tracked.curve[s - 1].objective + 1e-9)
        << "sample " << s;
  }
  EXPECT_NEAR(stats_tracked.curve.back().objective,
              stats_tracked.final_distance, 1e-6);
}

TEST(RewirerTest, AdaptiveStopHaltsSequential) {
  Rng gen_rng(14);
  const Graph before = GeneratePowerlawCluster(250, 3, 0.6, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.05);
  RewireOptions reference;
  reference.rewiring_coefficient = 30.0;
  reference.track_properties = true;

  Graph g_ref = before;
  Rng rng_ref(0x5709);
  const RewireStats ref =
      RewireToClustering(g_ref, 0, target, reference, rng_ref);
  ASSERT_GT(ref.initial_distance, ref.final_distance);
  ASSERT_FALSE(ref.stopped_early);

  // An epsilon strictly between the final and initial distance must be
  // crossed mid-run: the stop fires with attempts genuinely saved.
  RewireOptions stopping = reference;
  stopping.stop_epsilon =
      0.5 * (ref.initial_distance + ref.final_distance);
  Graph g_stop = before;
  Rng rng_stop(0x5709);
  const RewireStats stopped =
      RewireToClustering(g_stop, 0, target, stopping, rng_stop);
  EXPECT_TRUE(stopped.stopped_early);
  EXPECT_GT(stopped.attempts, 0u);
  EXPECT_LT(stopped.attempts, ref.attempts);
  ASSERT_EQ(kConvergenceSamples, stopped.curve.size());
  EXPECT_LE(stopped.final_distance, stopping.stop_epsilon + 1e-6);

  // Epsilon already satisfied at the start: zero attempts.
  RewireOptions trivial = reference;
  trivial.stop_epsilon = 1e6;
  Graph g_trivial = before;
  Rng rng_trivial(0x5709);
  const RewireStats none =
      RewireToClustering(g_trivial, 0, target, trivial, rng_trivial);
  EXPECT_TRUE(none.stopped_early);
  EXPECT_EQ(0u, none.attempts);
  EXPECT_EQ(0u, none.accepted);
  for (EdgeId e = 0; e < before.NumEdges(); ++e) {
    ASSERT_EQ(before.edge(e).u, g_trivial.edge(e).u) << "edge " << e;
    ASSERT_EQ(before.edge(e).v, g_trivial.edge(e).v) << "edge " << e;
  }
}

}  // namespace
}  // namespace sgr
