#ifndef SGR_BENCH_BENCH_COMMON_H_
#define SGR_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/properties.h"
#include "analysis/summary.h"
#include "exp/datasets.h"
#include "exp/parallel.h"
#include "exp/runner.h"
#include "exp/table_printer.h"
#include "graph/graph.h"
#include "restore/method.h"
#include "scenario/engine.h"
#include "scenario/report.h"
#include "util/parse.h"
#include "obs/timer.h"

namespace sgr::bench {

/// Every bench's `main`: runs `run(argc, argv)` and turns an escaping
/// exception — a malformed flag or SGR_* variable, a missing dataset
/// file — into its message on stderr and exit status 1, as `sgr` does.
inline int GuardedMain(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
}

/// The text after `flag` in argv, or nullopt when the flag is absent.
inline std::optional<std::string> FlagValue(int argc, char** argv,
                                            const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

/// Environment-tunable knobs shared by every experiment binary.
///
///   SGR_RUNS          runs per (dataset, method) cell
///   SGR_RC            rewiring coefficient RC (paper: 500)
///   SGR_FRACTION      queried-node fraction for the table benches
///   SGR_PATH_SOURCES  BFS/Brandes sources for path properties
///                     (0 = exact all-pairs)
///   SGR_THREADS       worker threads for the Monte Carlo trials
///                     (0 = hardware concurrency; default 1)
///   SGR_DATASET_SCALE dataset size multiplier (see exp/datasets.h)
///   SGR_DATASET_DIR   directory with real edge lists (optional)
///
/// Command-line flags (parsed by FromArgs) override the environment:
///   --threads N       same as SGR_THREADS
///   --runs N          same as SGR_RUNS
///   --json PATH       additionally write the run as a structured JSON
///                     report (scenario/report.h schema, the same format
///                     `sgr run` emits), so every bench invocation can be
///                     recorded as a BENCH_*.json data point
struct BenchConfig {
  std::size_t runs;
  double rc;
  double fraction;
  std::size_t path_sources;
  std::size_t threads = 1;
  bool threads_given = false;  ///< --threads or SGR_THREADS was set
  std::string json_path;  ///< empty = no JSON report

  static BenchConfig FromEnv(std::size_t default_runs, double default_rc,
                             double default_fraction = 0.10,
                             std::size_t default_sources = 600) {
    BenchConfig c;
    c.runs = EnvInput<std::uint64_t>("SGR_RUNS", default_runs, 1);
    c.rc = EnvInput("SGR_RC", default_rc, 0.0);
    c.fraction = EnvInput("SGR_FRACTION", default_fraction, 0.0, 1.0);
    c.path_sources =
        EnvInput<std::uint64_t>("SGR_PATH_SOURCES", default_sources);
    c.threads = EnvInput<std::uint64_t>("SGR_THREADS", 1, 0, kMaxThreads);
    c.threads_given = EnvText("SGR_THREADS").has_value();
    return c;
  }

  /// FromEnv plus command-line overrides. Every experiment binary accepts
  /// `--threads N` (0 = hardware concurrency): Monte Carlo trials then run
  /// concurrently over one shared CsrGraph snapshot of the dataset, with
  /// the distance aggregates identical for every N (see RunExperiments).
  /// Flag values are parsed as strictly as the environment; `--runs 0` is
  /// rejected, since zero trials only produces empty aggregates.
  static BenchConfig FromArgs(int argc, char** argv,
                              std::size_t default_runs, double default_rc,
                              double default_fraction = 0.10,
                              std::size_t default_sources = 600) {
    BenchConfig c = FromEnv(default_runs, default_rc, default_fraction,
                            default_sources);
    if (const auto threads = FlagValue(argc, argv, "--threads")) {
      c.threads = ParseInput<std::uint64_t>(*threads, "--threads", 0,
                                            kMaxThreads);
      c.threads_given = true;
    }
    if (const auto runs = FlagValue(argc, argv, "--runs")) {
      c.runs = ParseInput<std::uint64_t>(*runs, "--runs", 1);
    }
    c.json_path = FlagValue(argc, argv, "--json").value_or("");
    return c;
  }

  ExperimentConfig ToExperimentConfig() const {
    ExperimentConfig config;
    config.query_fraction = fraction;
    config.restoration.rewire.rewiring_coefficient = rc;
    config.property_options.max_path_sources = path_sources;
    // Trial-level parallelism (--threads) is the benches' scaling axis;
    // per-trial Brandes evaluation stays single-threaded so every printed
    // number is bitwise identical for any --threads value (FP summation
    // order never changes).
    config.property_options.threads = 1;
    return config;
  }

  /// The shared config echo embedded in a --json report. Includes the
  /// resolved dataset-scale knob so two recorded reports taken at
  /// different $SGR_DATASET_SCALE are attributable to their matrices
  /// (scenario reports echo the same field from the spec).
  Json ToJsonEcho() const {
    Json echo = Json::Object();
    echo.Set("runs", Json::Number(static_cast<double>(runs)));
    echo.Set("rc", Json::Number(rc));
    echo.Set("fraction", Json::Number(fraction));
    echo.Set("path_sources",
             Json::Number(static_cast<double>(path_sources)));
    echo.Set("dataset_scale", Json::Number(ResolveDatasetScale()));
    return echo;
  }
};

/// Runs `runs` experiment repetitions on `dataset` (concurrently on up to
/// `threads` workers) and accumulates per-method distance and timing
/// statistics, as one scenario-engine cell. This is the same code path
/// `sgr run` executes (scenario/engine.h), so a bench's --json report and
/// a scenario report share one schema and one aggregation (the numbers
/// themselves match only where the seed bases line up — benches reuse one
/// base per table, the engine derives a distinct base per cell). The *distance*
/// aggregates are identical for every thread count; the *timing* fields
/// are wall-clock measured inside each trial, so concurrent trials
/// contending for cores inflate them — benches whose point is the timing
/// (Table IV/V, the RC ablation) should be read with `--threads 1`, or
/// treat only the ratios as meaningful.
inline ScenarioCell RunDataset(const DatasetSpec& spec,
                               const Graph& dataset,
                               const GraphProperties& properties,
                               const ExperimentConfig& experiment,
                               std::size_t runs, std::uint64_t seed_base,
                               std::size_t threads = 1) {
  return RunScenarioCell(spec.name, CsrGraph(dataset), properties,
                         experiment, runs, seed_base, threads);
}

/// Collects report cells across a bench run and writes the JSON report if
/// `--json PATH` was given. The report document (tool name, config echo,
/// environment capture, cells) is assembled by scenario/report.h — the
/// same writer the scenario engine uses.
class BenchJsonReport {
 public:
  BenchJsonReport(std::string tool, const BenchConfig& config)
      : tool_(std::move(tool)),
        config_echo_(config.ToJsonEcho()),
        path_(config.json_path),
        threads_(ResolveThreadCount(config.threads)),
        cells_(Json::Array()) {}

  /// Adds a standard scenario cell (the table benches).
  void Add(const ScenarioCell& cell) { cells_.Push(ScenarioCellToJson(cell)); }

  /// Adds a custom cell (the ablation benches). By convention volatile
  /// wall-clock values go under a "timings" member so StripVolatile works
  /// on ablation reports too.
  void Add(Json cell) { cells_.Push(std::move(cell)); }

  /// Writes the report when --json was requested; prints the path.
  void WriteIfRequested() const {
    if (path_.empty()) return;
    WriteJsonFile(MakeReport(tool_, config_echo_, cells_,
                             CaptureEnvironment(threads_)),
                  path_);
    std::cout << "\nwrote JSON report: " << path_ << "\n";
  }

 private:
  std::string tool_;
  Json config_echo_;
  std::string path_;
  std::size_t threads_;
  Json cells_;
};

/// Starts an ablation report cell: the dataset label plus the
/// materialized graph's size, so custom cells are attributable to their
/// inputs the same way scenario cells are. Callers add their "metrics"
/// (and optional "timings") members.
inline Json CustomCell(const DatasetSpec& spec, const Graph& dataset) {
  Json cell = Json::Object();
  cell.Set("dataset", Json::String(spec.name));
  cell.Set("nodes", Json::Number(static_cast<double>(dataset.NumNodes())));
  cell.Set("edges", Json::Number(static_cast<double>(dataset.NumEdges())));
  return cell;
}

/// Prints the standard bench banner with the dataset's actual size next to
/// the paper's Table I reference size.
inline void PrintDatasetBanner(const DatasetSpec& spec, const Graph& g) {
  std::cout << "## dataset " << spec.name << ": n = " << g.NumNodes()
            << ", m = " << g.NumEdges() << "  (paper: n = "
            << spec.paper_nodes << ", m = " << spec.paper_edges << ")\n";
}

/// Runs a built-in scenario as a bench binary: the workload definition
/// lives entirely in the spec (scenario/spec.cc), execution goes through
/// RunScenario, and `--json PATH` writes ScenarioReportToJson — the very
/// function `sgr run <name> --out PATH` calls — so the two files are
/// byte-identical (including after StripVolatile). This is what retired
/// the ablation benches' bespoke C++ loops: a bench binary is now a
/// pre-named `sgr run` plus a human-readable table.
///
/// Flags: `--threads N` (beats $SGR_THREADS beats the spec; 0 = all
/// cores) and `--json PATH`. The historical per-bench env knobs are gone
/// on purpose — a knob that changed the workload without changing the
/// spec echo would break the report's attributability.
inline int RunBuiltinScenarioBench(const std::string& name, int argc,
                                   char** argv) {
  const ScenarioSpec spec = BuiltinScenario(name);
  std::size_t threads =
      EnvInput<std::uint64_t>("SGR_THREADS", spec.threads, 0, kMaxThreads);
  if (const auto flag = FlagValue(argc, argv, "--threads")) {
    threads = ParseInput<std::uint64_t>(*flag, "--threads", 0, kMaxThreads);
  }
  const std::string json_path =
      FlagValue(argc, argv, "--json").value_or("");

  std::cout << "=== scenario '" << name
            << "': " << BuiltinScenarioDescription(name) << " ===\n"
            << "threads = " << ResolveThreadCount(threads)
            << " (timings are wall-clock inside concurrent trials; read "
               "them at --threads 1)\n\n";
  const ScenarioRunResult result = RunScenario(spec, threads, &std::cout);

  TablePrinter table(std::cout, {"Cell", "Method", "steps", "avg L1",
                                 "final D", "rewire s"});
  for (const ScenarioCell& cell : result.cells) {
    const std::string label = CellLabel(cell.dataset, cell.knobs);
    for (const auto& [kind, aggregate] : cell.methods) {
      const DistanceSummary summary = aggregate.distances.Summarize();
      table.AddRow({label, MethodName(kind),
                    TablePrinter::Fixed(aggregate.sample_steps, 0),
                    TablePrinter::Fixed(summary.mean_average),
                    TablePrinter::Fixed(aggregate.rewire.final_distance),
                    TablePrinter::Fixed(aggregate.rewiring_seconds, 2)});
    }
  }
  table.Print();

  if (!json_path.empty()) {
    WriteJsonFile(ScenarioReportToJson(result), json_path);
    std::cout << "\nwrote JSON report: " << json_path
              << " (byte-identical to `sgr run " << name << " --out`)\n";
  }
  return 0;
}

}  // namespace sgr::bench

#endif  // SGR_BENCH_BENCH_COMMON_H_
