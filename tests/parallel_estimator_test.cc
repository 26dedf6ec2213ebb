#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimation/estimators.h"
#include "exp/parallel.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "sampling/random_walk.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// A walk long enough to span many estimator chunks, so the multi-chunk
/// reduction paths (not just the single-chunk degenerate case) are what
/// the bit-identity assertions exercise.
SamplingList MultiChunkWalk() {
  Rng rng(7);
  const CsrGraph g(GeneratePowerlawCluster(4000, 3, 0.4, rng));
  QueryOracle oracle(g);
  return RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(g.NumNodes())),
      g.NumNodes() / 2, rng);
}

/// Bit-exact equality of two estimate sets, double fields included.
void ExpectSameEstimates(const LocalEstimates& a, const LocalEstimates& b,
                         const std::string& what) {
  EXPECT_EQ(a.num_nodes, b.num_nodes) << what;
  EXPECT_EQ(a.average_degree, b.average_degree) << what;
  ASSERT_EQ(a.degree_dist.size(), b.degree_dist.size()) << what;
  for (std::size_t k = 0; k < a.degree_dist.size(); ++k) {
    EXPECT_EQ(a.degree_dist[k], b.degree_dist[k]) << what << " P(" << k
                                                  << ")";
  }
  ASSERT_EQ(a.clustering.size(), b.clustering.size()) << what;
  for (std::size_t k = 0; k < a.clustering.size(); ++k) {
    EXPECT_EQ(a.clustering[k], b.clustering[k]) << what << " c(" << k
                                                << ")";
  }
  ASSERT_EQ(a.joint_dist.values().size(), b.joint_dist.values().size())
      << what;
  for (const auto& [key, value] : a.joint_dist.values()) {
    const auto it = b.joint_dist.values().find(key);
    ASSERT_NE(it, b.joint_dist.values().end()) << what;
    EXPECT_EQ(it->second, value) << what << " key " << key;
  }
}

/// `count` results of `fn`, computed at once on `count` threads — the way
/// the scenario engine's concurrent trials call the estimators.
template <typename Fn>
auto RunConcurrently(std::size_t count, const Fn& fn) {
  std::vector<decltype(fn())> results(count);
  ParallelFor(count, count, [&](std::size_t i) { results[i] = fn(); });
  return results;
}

TEST(ParallelEstimatorTest, LocalPropertiesBitIdenticalAcrossThreadCounts) {
  // Estimates must not depend on how many trials estimate at once.
  const SamplingList walk = MultiChunkWalk();
  ASSERT_GT(walk.Length(), 2 * kEstimatorChunkSize)
      << "walk too short to exercise the multi-chunk reduction";

  const LocalEstimates baseline = EstimateLocalProperties(walk);
  for (const std::size_t threads : {2u, 8u}) {
    for (const LocalEstimates& est : RunConcurrently(
             threads, [&] { return EstimateLocalProperties(walk); })) {
      ExpectSameEstimates(baseline, est,
                          "threads = " + std::to_string(threads));
    }
  }
  // The estimates carry real content (not a degenerate all-zero pass).
  EXPECT_GT(baseline.num_nodes, 0.0);
  EXPECT_GT(baseline.average_degree, 0.0);
  EXPECT_FALSE(baseline.joint_dist.values().empty());
}

TEST(ParallelEstimatorTest, EveryJointModeBitIdentical) {
  // The IE / TE / hybrid selection reads the chunk-merged accumulators
  // differently; each mode must give the same bits when computed
  // concurrently with others.
  const SamplingList walk = MultiChunkWalk();
  for (const JointEstimatorMode mode :
       {JointEstimatorMode::kHybrid, JointEstimatorMode::kInducedEdgesOnly,
        JointEstimatorMode::kTraversedEdgesOnly}) {
    EstimatorOptions options;
    options.joint_mode = mode;
    const LocalEstimates baseline = EstimateLocalProperties(walk, options);
    for (const LocalEstimates& est : RunConcurrently(
             4, [&] { return EstimateLocalProperties(walk, options); })) {
      ExpectSameEstimates(baseline, est,
                          "mode " + std::to_string(static_cast<int>(mode)));
    }
  }
}

TEST(ParallelEstimatorTest, ScalarEstimatorsBitIdenticalAcrossThreads) {
  const SamplingList walk = MultiChunkWalk();
  const double degree = EstimateAverageDegree(walk);
  EXPECT_GT(degree, 0.0);
  const double nodes = EstimateNumNodes(walk, -1.0);
  EXPECT_GT(nodes, 0.0);
  for (const std::size_t threads : {2u, 8u}) {
    for (const double value : RunConcurrently(
             threads, [&] { return EstimateAverageDegree(walk); })) {
      EXPECT_EQ(value, degree) << "threads = " << threads;
    }
    for (const double value : RunConcurrently(
             threads, [&] { return EstimateNumNodes(walk, -1.0); })) {
      EXPECT_EQ(value, nodes) << "threads = " << threads;
    }
  }
}

TEST(ParallelEstimatorTest, AverageDegreeReducesTheChunkGridInOrder) {
  // k̂̄ = r / Σ 1/d(x_i), with the sum taken per kEstimatorChunkSize chunk
  // and the chunk sums added in ascending order — the summation order
  // every recorded report depends on.
  const SamplingList walk = MultiChunkWalk();
  const std::size_t r = walk.Length();
  double inv_sum = 0.0;
  for (std::size_t begin = 0; begin < r; begin += kEstimatorChunkSize) {
    const std::size_t end = std::min(r, begin + kEstimatorChunkSize);
    double chunk = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      chunk += 1.0 / static_cast<double>(walk.Degree(walk.Walk()[i]));
    }
    inv_sum += chunk;
  }
  EXPECT_EQ(EstimateAverageDegree(walk), static_cast<double>(r) / inv_sum);
}

TEST(ParallelEstimatorTest, FullProposedPipelineBitIdenticalAcrossThreads) {
  // The restored graph is a deterministic function of (sample, seed), no
  // matter how many restorations run at once.
  Rng gen_rng(61);
  const CsrGraph original(GeneratePowerlawCluster(500, 3, 0.4, gen_rng));
  QueryOracle oracle(original);
  Rng walk_rng(62);
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(walk_rng.NextIndex(original.NumNodes())),
      original.NumNodes() / 10, walk_rng);

  const auto restore = [&] {
    RestorationOptions options;
    options.rewire.rewiring_coefficient = 5.0;
    Rng rng(63);
    return RestoreProposed(walk, options, rng);
  };
  const RestorationResult baseline = restore();
  for (const std::size_t threads : {2u, 8u}) {
    for (const RestorationResult& run : RunConcurrently(threads, restore)) {
      ASSERT_EQ(run.graph.NumEdges(), baseline.graph.NumEdges());
      for (EdgeId e = 0; e < baseline.graph.NumEdges(); ++e) {
        ASSERT_EQ(run.graph.edge(e).u, baseline.graph.edge(e).u)
            << "edge " << e << " at threads " << threads;
        ASSERT_EQ(run.graph.edge(e).v, baseline.graph.edge(e).v)
            << "edge " << e << " at threads " << threads;
      }
      EXPECT_EQ(run.rewire_stats.final_distance,
                baseline.rewire_stats.final_distance);
    }
  }
}

}  // namespace
}  // namespace sgr
