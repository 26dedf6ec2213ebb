// Throughput of the parallel restoration engine: wall-clock time of the
// full Monte Carlo trial matrix (all six methods per trial) at increasing
// thread counts, against one immutable CsrGraph snapshot of the dataset.
//
// This is the scaling bench behind docs/BENCHMARKS.md: it prints the
// single-thread baseline, the speedup per thread count, and verifies that
// every thread count reproduces the single-thread aggregates exactly
// (trial i is always seeded with seed_base + i, so the work — and the
// printed distances — cannot depend on scheduling).
//
// Usage: bench_parallel_trials [--runs N] [--threads N]
//   --threads N   maximum thread count to sweep to (default: hardware
//                 concurrency); the sweep doubles 1, 2, 4, ... up to N.
// Env knobs: SGR_RUNS (default 8), SGR_RC (default 50), SGR_FRACTION,
// SGR_PATH_SOURCES, SGR_DATASET_SCALE.

#include <cmath>

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  BenchConfig config =
      BenchConfig::FromArgs(argc, argv, /*default_runs=*/8,
                            /*default_rc=*/50.0,
                            /*default_fraction=*/0.10,
                            /*default_sources=*/200);
  // Unlike the table benches (default 1 thread), this bench's whole point
  // is the sweep: with no explicit --threads / SGR_THREADS the ceiling is
  // the hardware concurrency.
  const std::size_t max_threads =
      ResolveThreadCount(config.threads_given ? config.threads : 0);

  const DatasetSpec spec = DatasetByName("brightkite");
  const CsrGraph dataset(LoadDataset(spec));
  std::cout << "=== Parallel trial engine: wall-clock vs threads ===\n";
  PrintDatasetBanner(spec, dataset);
  std::cout << "trials: " << config.runs << ", RC = " << config.rc
            << ", max threads = " << max_threads << "\n\n";

  const ExperimentConfig experiment = config.ToExperimentConfig();
  const GraphProperties properties =
      ComputeProperties(dataset, experiment.property_options);

  // Sweep 1, 2, 4, ... and always include max_threads itself.
  std::vector<std::size_t> sweep;
  for (std::size_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);

  TablePrinter table(std::cout, {"threads", "seconds", "speedup",
                                 "trials/sec", "identical to 1-thread"});
  double baseline_seconds = 0.0;
  std::map<MethodKind, double> baseline_sums;
  for (std::size_t threads : sweep) {
    Timer timer;
    const auto trials = RunExperiments(dataset, properties, experiment,
                                       /*seed_base=*/0x9A7A, config.runs,
                                       threads);
    const double seconds = timer.Seconds();

    // Aggregate a fingerprint: per-method sum of average distances.
    std::map<MethodKind, double> sums;
    for (const auto& trial : trials) {
      for (const MethodRunResult& r : trial) {
        sums[r.kind] += r.average_distance;
      }
    }
    bool identical = true;
    if (threads == 1) {
      baseline_seconds = seconds;
      baseline_sums = sums;
    } else {
      identical = sums == baseline_sums;  // exact FP equality intended
    }
    table.AddRow({std::to_string(threads), TablePrinter::Fixed(seconds, 2),
                  TablePrinter::Fixed(baseline_seconds /
                                          std::max(1e-9, seconds), 2) + "x",
                  TablePrinter::Fixed(
                      static_cast<double>(config.runs) /
                          std::max(1e-9, seconds), 2),
                  identical ? "yes" : "NO"});
  }
  table.Print();
  std::cout << "\nexpected shape: near-linear speedup while trials "
               "outnumber threads (each trial is an independent read of "
               "the shared snapshot), and 'identical' = yes on every "
               "row.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
