// Scaling bench of the two intra-trial engines this PR parallelizes: the
// chunked estimator pass (EstimateLocalProperties and friends) and the
// parallel Algorithm 5 assembly (ConstructPreservingTargetsParallel) —
// wall-clock at increasing worker counts on the proposed pipeline's own
// inputs.
//
// Like bench_parallel_rewire, the bench locks the determinism contract:
// every thread count must produce bit-identical estimates (every double
// field compared exactly) and a byte-identical assembled graph (FNV-1a
// over the edge list), because the estimator's chunk grid is fixed by the
// walk length and the assembly draws are a pure function of
// (seed, class pair) with a canonical commit order. The sequential
// engines run first as reference rows.
//
// Usage: bench_parallel_assembly [--threads N] [--json PATH]
//   --threads N   maximum worker count to sweep to (default: hardware
//                 concurrency); the sweep doubles 1, 2, 4, ... up to N.
// Env knobs: SGR_FRACTION, SGR_DATASET_SCALE, SGR_DATASET_DIR.
// `--json PATH` records one report cell per (engine, thread count)
// through the shared sgr-report/1 writer: fingerprints and identity
// flags land under "metrics" (deterministic), seconds under "timings"
// (volatile).


#include "bench_common.h"
#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

namespace {

/// FNV-1a over the edge list: equal hashes across thread counts is the
/// byte-identity check (order and endpoints both matter).
std::uint64_t EdgeListFingerprint(const sgr::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const sgr::Edge& e : g.edges()) {
    mix(e.u);
    mix(e.v);
  }
  return h;
}

/// Bit-exact equality of two estimate sets — every double compared with
/// ==, the distributions element-wise, the joint distribution as a map.
bool SameEstimates(const sgr::LocalEstimates& x,
                   const sgr::LocalEstimates& y) {
  if (x.num_nodes != y.num_nodes || x.average_degree != y.average_degree ||
      x.degree_dist != y.degree_dist || x.clustering != y.clustering) {
    return false;
  }
  if (x.joint_dist.values().size() != y.joint_dist.values().size()) {
    return false;
  }
  for (const auto& [key, value] : x.joint_dist.values()) {
    const auto it = y.joint_dist.values().find(key);
    if (it == y.joint_dist.values().end() || it->second != value) {
      return false;
    }
  }
  return true;
}

}  // namespace

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const BenchConfig config =
      BenchConfig::FromArgs(argc, argv, /*default_runs=*/1,
                            /*default_rc=*/0.0,
                            /*default_fraction=*/0.10,
                            /*default_sources=*/0);
  const std::size_t max_threads =
      ResolveThreadCount(config.threads_given ? config.threads : 0);

  const DatasetSpec spec = DatasetByName("brightkite");
  const Graph dataset = LoadDataset(spec);
  std::cout << "=== Parallel estimator pass + Algorithm 5 assembly: "
               "wall-clock vs threads ===\n";
  PrintDatasetBanner(spec, dataset);
  std::cout << "fraction = " << config.fraction
            << ", estimator chunk = " << kEstimatorChunkSize
            << ", max threads = " << max_threads << "\n\n";

  // The pipeline inputs both engines consume: one crawl, its subgraph,
  // and the targets built from the sequential-reference estimates.
  Rng rng(0xA55E);
  QueryOracle oracle(dataset);
  const auto budget = static_cast<std::size_t>(
      config.fraction * static_cast<double>(dataset.NumNodes()));
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(dataset.NumNodes())),
      budget, rng);
  std::cout << "walk: r = " << walk.Length() << " steps over "
            << walk.NumQueried() << " queried nodes ("
            << (walk.Length() + kEstimatorChunkSize - 1) /
                   kEstimatorChunkSize
            << " estimator chunks)\n\n";

  std::vector<std::size_t> sweep;
  for (std::size_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);

  BenchJsonReport report("bench_parallel_assembly", config);

  // --- Estimator pass. ---
  TablePrinter est_table(std::cout, {"engine", "threads", "seconds",
                                     "speedup", "n-hat",
                                     "identical to 1-thread"});
  LocalEstimates baseline_est;
  double est_baseline_seconds = 0.0;
  for (const std::size_t threads : sweep) {
    EstimatorOptions options;
    options.threads = threads;
    Timer timer;
    const LocalEstimates est = EstimateLocalProperties(walk, options);
    const double seconds = timer.Seconds();
    bool identical = true;
    if (threads == sweep.front()) {
      baseline_est = est;
      est_baseline_seconds = seconds;
    } else {
      identical = SameEstimates(est, baseline_est);
    }
    est_table.AddRow(
        {"estimator", std::to_string(threads),
         TablePrinter::Fixed(seconds, 3),
         TablePrinter::Fixed(est_baseline_seconds /
                                 std::max(1e-9, seconds), 2) + "x",
         TablePrinter::Fixed(est.num_nodes, 0),
         identical ? "yes" : "NO"});

    Json cell = CustomCell(spec, dataset);
    Json metrics = Json::Object();
    metrics.Set("engine", Json::String("estimator"));
    metrics.Set("threads", Json::Number(static_cast<double>(threads)));
    metrics.Set("walk_steps",
                Json::Number(static_cast<double>(walk.Length())));
    metrics.Set("num_nodes_hat", Json::Number(est.num_nodes));
    metrics.Set("average_degree_hat", Json::Number(est.average_degree));
    metrics.Set("identical_to_one_thread", Json::Bool(identical));
    cell.Set("metrics", std::move(metrics));
    Json timings = Json::Object();
    timings.Set("estimate_seconds", Json::Number(seconds));
    cell.Set("timings", std::move(timings));
    report.Add(std::move(cell));
  }
  est_table.Print();
  std::cout << "\n";

  // --- Algorithm 5 assembly. ---
  const Subgraph sub = BuildSubgraph(walk);
  TargetDegreeVectorResult dv =
      BuildTargetDegreeVector(sub, baseline_est, rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(baseline_est, dv.n_star, m_prime, rng);

  TablePrinter asm_table(std::cout,
                         {"engine", "threads", "seconds", "speedup",
                          "edges", "identical to 1-thread"});
  // Reference row: the classic sequential stub-matching loop.
  {
    Rng seq_rng(0xA55F);
    Timer timer;
    const Graph g = ConstructPreservingTargets(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, seq_rng);
    asm_table.AddRow({"sequential", "1",
                      TablePrinter::Fixed(timer.Seconds(), 3), "-",
                      std::to_string(g.NumEdges()), "-"});
  }
  std::uint64_t baseline_hash = 0;
  double asm_baseline_seconds = 0.0;
  for (const std::size_t threads : sweep) {
    Timer timer;
    const Graph g = ConstructPreservingTargetsParallel(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star,
        /*seed=*/0xA560, threads);
    const double seconds = timer.Seconds();
    const std::uint64_t hash = EdgeListFingerprint(g);
    bool identical = true;
    if (threads == sweep.front()) {
      baseline_hash = hash;
      asm_baseline_seconds = seconds;
    } else {
      identical = hash == baseline_hash;
    }
    asm_table.AddRow(
        {"parallel", std::to_string(threads),
         TablePrinter::Fixed(seconds, 3),
         TablePrinter::Fixed(asm_baseline_seconds /
                                 std::max(1e-9, seconds), 2) + "x",
         std::to_string(g.NumEdges()), identical ? "yes" : "NO"});

    Json cell = CustomCell(spec, dataset);
    Json metrics = Json::Object();
    metrics.Set("engine", Json::String("assembly"));
    metrics.Set("threads", Json::Number(static_cast<double>(threads)));
    metrics.Set("assembled_edges",
                Json::Number(static_cast<double>(g.NumEdges())));
    metrics.Set("edge_list_fnv1a",
                Json::Number(static_cast<double>(hash % (1ULL << 53))));
    metrics.Set("identical_to_one_thread", Json::Bool(identical));
    cell.Set("metrics", std::move(metrics));
    Json timings = Json::Object();
    timings.Set("assembly_seconds", Json::Number(seconds));
    cell.Set("timings", std::move(timings));
    report.Add(std::move(cell));
  }
  asm_table.Print();
  report.WriteIfRequested();
  std::cout << "\nexpected shape: 'identical' = yes on every row for both "
               "engines (chunk grid and draw streams never depend on the "
               "worker count), with the estimator speedup growing while "
               "the induced-edge scan dominates and the assembly speedup "
               "bounded by its sequential commit phase.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
