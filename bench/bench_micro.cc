// Micro benchmarks (google-benchmark) of the library's hot components:
// crawling, estimation, target construction, graph assembly, triangle
// tracking, rewiring throughput, and the property analyzers. These are the
// per-component costs behind the end-to-end times in Table IV.

#include <benchmark/benchmark.h>

#include "analysis/properties.h"
#include "dk/dk_construct.h"
#include "dk/dk_extract.h"
#include "dk/triangle_tracker.h"
#include "estimation/estimators.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "restore/rewirer.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

namespace sgr {
namespace {

const Graph& SharedGraph(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(0xBE7C + n);
    it = cache.emplace(n, GeneratePowerlawCluster(n, 4, 0.4, rng)).first;
  }
  return it->second;
}

/// SharedGraph(n) as the read-only snapshot the crawlers and analyzers
/// take.
const CsrGraph& SharedSnapshot(std::size_t n) {
  static std::map<std::size_t, CsrGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, CsrGraph(SharedGraph(n))).first;
  }
  return it->second;
}

/// A walk over SharedSnapshot(n) querying `fraction` of its nodes.
SamplingList SharedWalk(std::size_t n, double fraction, std::uint64_t seed) {
  const CsrGraph& g = SharedSnapshot(n);
  QueryOracle oracle(g);
  Rng rng(seed);
  return RandomWalkSample(
      oracle, 0,
      static_cast<std::size_t>(fraction * static_cast<double>(g.NumNodes())),
      rng);
}

void BM_RandomWalkSampling(benchmark::State& state) {
  const CsrGraph& g =
      SharedSnapshot(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    QueryOracle oracle(g);
    Rng rng(seed++);
    benchmark::DoNotOptimize(
        RandomWalkSample(oracle, 0, g.NumNodes() / 10, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumNodes() / 10));
}
BENCHMARK(BM_RandomWalkSampling)->Arg(2000)->Arg(8000);

void BM_BuildSubgraph(benchmark::State& state) {
  const SamplingList walk =
      SharedWalk(static_cast<std::size_t>(state.range(0)), 0.1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSubgraph(walk));
  }
}
BENCHMARK(BM_BuildSubgraph)->Arg(2000)->Arg(8000);

void BM_EstimateLocalProperties(benchmark::State& state) {
  const SamplingList walk =
      SharedWalk(static_cast<std::size_t>(state.range(0)), 0.1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateLocalProperties(walk));
  }
}
BENCHMARK(BM_EstimateLocalProperties)->Arg(2000)->Arg(8000);

void BM_TargetConstruction(benchmark::State& state) {
  const SamplingList walk =
      SharedWalk(static_cast<std::size_t>(state.range(0)), 0.1, 4);
  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);
  Rng rng(5);
  for (auto _ : state) {
    TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
    const JointDegreeMatrix m_prime =
        SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
    benchmark::DoNotOptimize(
        BuildTargetJdm(est, dv.n_star, m_prime, rng));
  }
}
BENCHMARK(BM_TargetConstruction)->Arg(2000)->Arg(8000);

void BM_AssembleGraph(benchmark::State& state) {
  const SamplingList walk =
      SharedWalk(static_cast<std::size_t>(state.range(0)), 0.1, 6);
  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);
  Rng rng(7);
  TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, dv.n_star, m_prime, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConstructPreservingTargets(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, rng));
  }
}
BENCHMARK(BM_AssembleGraph)->Arg(2000)->Arg(8000);

void BM_TriangleTrackerChurn(benchmark::State& state) {
  const Graph& g = SharedGraph(2000);
  TriangleTracker tracker(g, ExtractDegreeDependentClustering(CsrGraph(g)));
  Rng rng(8);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
    const NodeId v = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
    if (u == v) continue;
    tracker.AddEdge(u, v);
    tracker.RemoveEdge(u, v);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TriangleTrackerChurn);

void BM_RewiringAttempts(benchmark::State& state) {
  const Graph& g = SharedGraph(2000);
  const std::vector<double> target =
      ExtractDegreeDependentClustering(CsrGraph(g));
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    Graph copy = g;
    state.ResumeTiming();
    RewireOptions options;
    options.rewiring_coefficient = 1.0;  // |E| attempts per iteration
    benchmark::DoNotOptimize(
        RewireToClustering(copy, 0, target, options, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumEdges()));
}
BENCHMARK(BM_RewiringAttempts);

/// The one common-neighbor pass (triangles and shared partners) on a
/// prebuilt snapshot, as ComputeProperties runs it.
void BM_TriangleCount(benchmark::State& state) {
  const CsrGraph& g =
      SharedSnapshot(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountSharedPartners(g));
  }
}
BENCHMARK(BM_TriangleCount)->Arg(2000)->Arg(8000);

void BM_ShortestPathProperties(benchmark::State& state) {
  const CsrGraph& g = SharedSnapshot(2000);
  PropertyOptions options;
  options.max_path_sources = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeShortestPathProperties(g, options));
  }
}
BENCHMARK(BM_ShortestPathProperties)->Arg(100)->Arg(0);  // 0 = exact

void BM_ProposedEndToEnd(benchmark::State& state) {
  const SamplingList walk = SharedWalk(2000, 0.1, 10);
  RestorationOptions options;
  options.rewire.rewiring_coefficient =
      static_cast<double>(state.range(0));
  std::uint64_t seed = 11;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(RestoreProposed(walk, options, rng));
  }
}
BENCHMARK(BM_ProposedEndToEnd)->Arg(10)->Arg(100);

}  // namespace
}  // namespace sgr

BENCHMARK_MAIN();
