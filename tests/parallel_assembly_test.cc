#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dk/dk_construct.h"
#include "dk/dk_extract.h"
#include "estimation/estimators.h"
#include "exp/parallel.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// Byte-level edge-list equality: same edges, same ids, same endpoint
/// order — the assembly engines' determinism currency.
void ExpectSameEdgeList(const Graph& a, const Graph& b,
                        const std::string& what) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes()) << what;
  ASSERT_EQ(a.NumEdges(), b.NumEdges()) << what;
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    ASSERT_EQ(a.edge(e).u, b.edge(e).u) << what << " edge " << e;
    ASSERT_EQ(a.edge(e).v, b.edge(e).v) << what << " edge " << e;
  }
}

/// The invariants Algorithm 5 must realize regardless of engine: the
/// base survives verbatim under its original edge ids, and the targets
/// are hit exactly.
void ExpectAssemblyInvariants(const Graph& base, const Graph& out,
                              const DegreeVector& n_star,
                              const JointDegreeMatrix& m_star,
                              const std::string& what) {
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    EXPECT_EQ(out.edge(e).u, base.edge(e).u) << what << " edge " << e;
    EXPECT_EQ(out.edge(e).v, base.edge(e).v) << what << " edge " << e;
  }
  EXPECT_EQ(ExtractDegreeVector(out), n_star) << what;
  const JointDegreeMatrix out_jdm = ExtractJointDegreeMatrix(out);
  for (const auto& [key, count] : m_star.counts()) {
    EXPECT_EQ(out_jdm.counts().count(key) > 0 ? out_jdm.counts().at(key)
                                              : 0,
              count)
        << what;
  }
  EXPECT_EQ(out_jdm.TotalEdges(), m_star.TotalEdges()) << what;
}

/// Realistic pipeline inputs: a crawl of a generated graph and the
/// targets the proposed method would build from it.
struct PipelineInputs {
  Subgraph sub;
  TargetDegreeVectorResult targets;
  JointDegreeMatrix m_star;
};

PipelineInputs BuildInputs(std::uint64_t seed) {
  Rng rng(seed);
  const CsrGraph original(GeneratePowerlawCluster(600, 3, 0.4, rng));
  QueryOracle oracle(original);
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(original.NumNodes())),
      original.NumNodes() / 10, rng);
  PipelineInputs inputs{BuildSubgraph(walk), {}, {}};
  const LocalEstimates est = EstimateLocalProperties(walk);
  inputs.targets = BuildTargetDegreeVector(inputs.sub, est, rng);
  const JointDegreeMatrix m_prime = SubgraphClassEdges(
      inputs.sub.graph, inputs.targets.subgraph_target_degrees);
  inputs.m_star =
      BuildTargetJdm(est, inputs.targets.n_star, m_prime, rng);
  return inputs;
}

TEST(ParallelAssemblyTest, ByteIdenticalAcrossThreadCounts) {
  // The graph must not depend on how many trials assemble at once.
  const PipelineInputs inputs = BuildInputs(11);
  const auto build = [&] {
    return ConstructPreservingTargetsParallel(
        inputs.sub.graph, inputs.targets.subgraph_target_degrees,
        inputs.targets.n_star, inputs.m_star, /*seed=*/0xD0C5);
  };
  const Graph baseline = build();
  for (const std::size_t threads : {2u, 8u}) {
    std::vector<Graph> runs(threads);
    ParallelFor(threads, threads, [&](std::size_t i) { runs[i] = build(); });
    for (const Graph& run : runs) {
      ExpectSameEdgeList(baseline, run,
                         "threads " + std::to_string(threads));
    }
  }
  // The run must add real work for the comparison to mean anything.
  EXPECT_GT(baseline.NumEdges(), inputs.sub.graph.NumEdges());
}

TEST(ParallelAssemblyTest, RealizesTargetsAndPreservesSubgraph) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const PipelineInputs inputs = BuildInputs(seed);
    const Graph out = ConstructPreservingTargetsParallel(
        inputs.sub.graph, inputs.targets.subgraph_target_degrees,
        inputs.targets.n_star, inputs.m_star, /*seed=*/seed * 31);
    ExpectAssemblyInvariants(inputs.sub.graph, out, inputs.targets.n_star,
                             inputs.m_star,
                             "seed " + std::to_string(seed));
  }
}

TEST(ParallelAssemblyTest, TwoKFromEmptyRealizesExtractedTargets) {
  // The Gjoka baseline's path: rebuild a real graph's (DV, JDM) from an
  // empty base through the parallel engine.
  Rng gen_rng(41);
  const Graph original = GeneratePowerlawCluster(300, 3, 0.4, gen_rng);
  const DegreeVector dv = ExtractDegreeVector(original);
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(original);
  const Graph rebuilt = Construct2kGraphParallel(dv, jdm, /*seed=*/42);
  EXPECT_EQ(rebuilt.NumNodes(), original.NumNodes());
  EXPECT_EQ(rebuilt.NumEdges(), original.NumEdges());
  EXPECT_EQ(ExtractDegreeVector(rebuilt), dv);
  const JointDegreeMatrix rebuilt_jdm = ExtractJointDegreeMatrix(rebuilt);
  for (const auto& [key, count] : jdm.counts()) {
    EXPECT_EQ(rebuilt_jdm.counts().at(key), count);
  }
  EXPECT_EQ(rebuilt_jdm.counts().size(), jdm.counts().size());
}

TEST(ParallelAssemblyTest, DifferentSeedsDifferentRealizations) {
  // The seed drives all randomness: two seeds give two (equally valid)
  // realizations, and the same seed reproduces bit-for-bit.
  const PipelineInputs inputs = BuildInputs(31);
  const auto build = [&](std::uint64_t seed) {
    return ConstructPreservingTargetsParallel(
        inputs.sub.graph, inputs.targets.subgraph_target_degrees,
        inputs.targets.n_star, inputs.m_star, seed);
  };
  const Graph a = build(1);
  const Graph b = build(1);
  ExpectSameEdgeList(a, b, "same seed");
  const Graph c = build(2);
  ASSERT_EQ(a.NumEdges(), c.NumEdges());
  bool any_difference = false;
  for (EdgeId e = 0; e < a.NumEdges() && !any_difference; ++e) {
    any_difference =
        a.edge(e).u != c.edge(e).u || a.edge(e).v != c.edge(e).v;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ParallelAssemblyTest, RejectsSameViolationsAsSequential) {
  // JDM-3 violated: stub counts cannot satisfy the matrix.
  {
    DegreeVector n_star = {0, 2};  // two degree-1 nodes
    JointDegreeMatrix m_star;
    m_star.SetSymmetric(1, 1, 3);  // needs 6 endpoint slots, only 2 exist
    EXPECT_THROW(Construct2kGraphParallel(n_star, m_star, /*seed=*/45),
                 std::logic_error);
  }
  // DV-3 violated: fewer degree-1 targets than the base already has.
  {
    Graph base(3);
    base.AddEdge(0, 1);
    base.AddEdge(1, 2);
    const std::vector<std::uint32_t> targets = {1, 2, 1};
    DegreeVector n_star = {0, 1, 1};
    JointDegreeMatrix m_star;
    m_star.SetSymmetric(1, 2, 2);
    EXPECT_THROW(
        ConstructPreservingTargetsParallel(base, targets, n_star, m_star,
                                           /*seed=*/46),
        std::logic_error);
  }
  // Target below the base degree.
  {
    Graph base(2);
    base.AddEdge(0, 1);
    const std::vector<std::uint32_t> targets = {0, 1};
    DegreeVector n_star = {1, 1};
    JointDegreeMatrix m_star;
    EXPECT_THROW(
        ConstructPreservingTargetsParallel(base, targets, n_star, m_star,
                                           /*seed=*/47),
        std::logic_error);
  }
}

TEST(ParallelAssemblyTest, FullProposedPipelineByteIdenticalAcrossThreads) {
  // RestorationOptions::parallel_assembly end to end: the restored graph
  // and every deterministic stat must be bit-identical no matter how many
  // restorations run at once.
  Rng gen_rng(51);
  const CsrGraph original(GeneratePowerlawCluster(500, 3, 0.4, gen_rng));
  QueryOracle oracle(original);
  Rng walk_rng(52);
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(walk_rng.NextIndex(original.NumNodes())),
      original.NumNodes() / 10, walk_rng);

  const auto restore = [&] {
    RestorationOptions options;
    options.rewire.rewiring_coefficient = 5.0;
    options.parallel_assembly.enabled = true;
    Rng rng(53);
    return RestoreProposed(walk, options, rng);
  };
  const RestorationResult baseline = restore();
  for (const std::size_t threads : {2u, 8u}) {
    std::vector<RestorationResult> runs(threads);
    ParallelFor(threads, threads,
                [&](std::size_t i) { runs[i] = restore(); });
    for (const RestorationResult& run : runs) {
      ExpectSameEdgeList(baseline.graph, run.graph,
                         "threads " + std::to_string(threads));
      EXPECT_EQ(run.rewire_stats.accepted, baseline.rewire_stats.accepted);
      EXPECT_EQ(run.rewire_stats.attempts, baseline.rewire_stats.attempts);
      EXPECT_EQ(run.rewire_stats.final_distance,
                baseline.rewire_stats.final_distance);
    }
  }

  // The engine knob itself changes the realization: the sequential
  // assembly (engine off, same seed) produces a different graph.
  RestorationOptions sequential;
  sequential.rewire.rewiring_coefficient = 5.0;
  Rng rng(53);
  const RestorationResult seq = RestoreProposed(walk, sequential, rng);
  ASSERT_EQ(seq.graph.NumEdges(), baseline.graph.NumEdges());
  bool any_difference = false;
  for (EdgeId e = 0; e < seq.graph.NumEdges() && !any_difference; ++e) {
    any_difference = seq.graph.edge(e).u != baseline.graph.edge(e).u ||
                     seq.graph.edge(e).v != baseline.graph.edge(e).v;
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace sgr
