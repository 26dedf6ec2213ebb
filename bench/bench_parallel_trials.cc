// Throughput of the scenario engine: wall-clock time of one built-in
// scenario's whole (cell, trial) task list at increasing thread counts.
//
// This is the scaling bench behind docs/BENCHMARKS.md: it prints the
// single-thread baseline, the speedup per thread count, and verifies that
// every thread count reproduces the single-thread report exactly — the
// report bytes after StripVolatile (trial i of a cell is always seeded
// with seed_base + i, so no printed number can depend on scheduling).
//
// Usage: bench_parallel_trials [BUILTIN] [--threads N]
//   BUILTIN       built-in scenario to run (default tables-smoke; see
//                 `sgr scenarios list`)
//   --threads N   maximum thread count to sweep to (or SGR_THREADS;
//                 default and 0: hardware concurrency); the sweep doubles
//                 1, 2, 4, ... up to N.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exp/parallel.h"
#include "exp/runner.h"
#include "exp/table_printer.h"
#include "obs/timer.h"
#include "scenario/engine.h"
#include "scenario/report.h"
#include "util/parse.h"

static int BenchMain(int argc, char** argv) {
  using namespace sgr;

  const bool named = argc > 1 && argv[1][0] != '-';
  const std::string name = named ? argv[1] : "tables-smoke";
  const Args args(argc, argv, named ? 2 : 1, {"threads"});
  const std::size_t max_threads = ResolveThreadCount(args.Get<std::uint64_t>(
      "threads", EnvInput<std::uint64_t>("SGR_THREADS", 0, 0, kMaxThreads),
      0, kMaxThreads));
  const ScenarioSpec spec = BuiltinScenario(name);

  std::cout << "=== Scenario engine: wall-clock vs threads ===\n"
            << "scenario '" << name << "': " << spec.datasets.size()
            << " dataset(s), " << spec.trials
            << " trials per cell, max threads = " << max_threads << "\n\n";

  // Sweep 1, 2, 4, ... and always include max_threads itself.
  std::vector<std::size_t> sweep;
  for (std::size_t t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);

  TablePrinter table(std::cout, {"threads", "seconds", "speedup",
                                 "trials/sec", "identical to 1-thread"});
  double baseline_seconds = 0.0;
  std::string baseline_report;
  for (std::size_t threads : sweep) {
    Timer timer;
    const ScenarioRunResult result = RunScenario(spec, threads);
    const double seconds = timer.Seconds();
    const std::string report =
        StripVolatile(ScenarioReportToJson(result)).Dump(2);
    if (threads == 1) {
      baseline_seconds = seconds;
      baseline_report = report;
    }
    const double trials =
        static_cast<double>(result.cells.size() * spec.trials);
    table.AddRow({std::to_string(threads), TablePrinter::Fixed(seconds, 2),
                  TablePrinter::Fixed(baseline_seconds /
                                          std::max(1e-9, seconds), 2) + "x",
                  TablePrinter::Fixed(trials / std::max(1e-9, seconds), 2),
                  report == baseline_report ? "yes" : "NO"});
  }
  table.Print();
  std::cout << "\nexpected shape: near-linear speedup while trials "
               "outnumber threads (each trial is an independent read of "
               "its dataset's shared snapshot), and 'identical' = yes on "
               "every row.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
