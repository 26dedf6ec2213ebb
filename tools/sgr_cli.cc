// sgr — command-line front end for the social-graph-restoration library.
//
// Subcommands mirror the paper's workflow end to end:
//
//   sgr generate --model powerlaw --nodes 3000 --edges-per-node 4
//                --triad-p 0.4 --seed 1 --out graph.txt
//       Generate a synthetic social graph (edge list).
//
//   sgr crawl --graph graph.txt --method rw --fraction 0.1 --seed 2
//             --out sample.txt
//       Crawl a graph through the query oracle and save the sampling list.
//       Methods: rw | nbrw | mhrw | bfs | snowball | ff | frontier.
//
//   sgr restore --sample sample.txt --method proposed --rc 500 --seed 3
//               --out restored.txt
//       Restore a graph from a saved sampling list.
//       Methods: proposed | gjoka | subgraph.
//
//   sgr analyze --graph graph.txt [--sources 500]
//       Print the 12 structural properties (plus assortativity,
//       degeneracy, periphery share).
//
//   sgr compare --original graph.txt --generated restored.txt
//               [--sources 500]
//       Print the per-property normalized L1 distances.
//
//   sgr run scenario.json --out results.json [--threads N]
//           [--rewire-threads N] [--assembly-threads N]
//           [--estimator-threads N] [--trace trace.json] [--metrics 0|1]
//   sgr run tables-smoke --out results.json
//       Execute a declarative scenario — a {dataset x crawler x budget x
//       noise x method} matrix described by one JSON file or a built-in
//       name (the "noise" axis runs the crawl against an adversarial
//       oracle: per-node query failure, hidden edges, churn, and an
//       API-call budget; see ARCHITECTURE.md) —
//       through the parallel trial engine, and write a structured JSON
//       report (per-cell wall-clock timings, the 12-property L1
//       distances, per-method rewiring statistics, and the run
//       environment). --threads (or SGR_THREADS; 0 = hardware
//       concurrency) overrides the scenario's own trial thread count;
//       --rewire-threads (or SGR_REWIRE_THREADS) overrides its
//       intra-trial rewiring worker count (used when the spec's
//       "rewire_batch" axis has a nonzero value), --assembly-threads
//       (SGR_ASSEMBLY_THREADS) the parallel Algorithm 5 assembly worker
//       count (used with "parallel_assembly": true), and
//       --estimator-threads (SGR_ESTIMATOR_THREADS) the chunked
//       estimator pass's worker count. The report's non-timing content
//       is identical for every value of every one of these knobs.
//       Without --out the report goes to stdout.
//
//       Every flag value and SGR_* variable is parsed strictly: the
//       whole string must be one value in the input's range (digits only
//       for counts, 0|1 for switches), or the command exits 1 naming the
//       flag or variable. A flag beats its SGR_* twin, which beats the
//       spec key; the precedence table is in docs/ARCHITECTURE.md, "Flags
//       and environment variables".
//
//       --trace FILE (or SGR_TRACE) records a span trace of the whole
//       run — crawls, estimation chunks, assembly class pairs, rewiring
//       rounds, pool tasks, cells — as Chrome trace_event JSON (load it
//       in chrome://tracing / Perfetto, or `sgr trace summarize` it).
//       --metrics 1 (or SGR_METRICS=1) adds a per-cell "metrics" block
//       (oracle queries, proposal counters, pool utilization, peak RSS)
//       to the report. Both are pure observation: the report's
//       post-StripVolatile bytes and every generated graph are identical
//       with them on or off.
//
//   sgr trace summarize trace.json
//       Validate a recorded trace (strict trace_event schema — CI gates
//       on this) and print the per-span-name time table: count, total
//       (inclusive) ms, self ms (total minus same-thread children), and
//       each span's share of the run's self time.
//
//   sgr scenarios list
//   sgr scenarios show tables-smoke
//       Enumerate the built-in scenarios / print one as a scenario.json
//       starting point.
//
//   sgr datasets list
//   sgr datasets export youtube --out youtube.txt [--scale 8]
//   sgr datasets ingest youtube.txt [--threads 4] [--compress on]
//                [--cache .sgr-cache]
//       Inspect the dataset registry, write a synthetic stand-in as a
//       canonical edge list (`# sgr-canonical 1`: dense ids the ingester
//       reloads verbatim), or run the out-of-core ingester directly and
//       print its stats — including `csr_hash`, a representation-
//       independent content hash of the resulting snapshot that CI
//       compares across thread counts and compression modes.
//
//   sgr diff old.json new.json [--l1-tol X] [--time-tol R] [--no-timings]
//            [--markdown 1]
//       Compare two sgr-report/1 files: cells are paired by (dataset, every
//       knob coordinate: fraction, walk, crawler, estimator, rc,
//       protect_subgraph, rewire_batch, frontier_walkers, noise) and each
//       method aggregate is checked for deterministic L1 drift (tolerance
//       --l1-tol, default 1e-9 — same spec + seed must reproduce the same
//       numbers) and
//       timing slowdowns (relative tolerance --time-tol, default 0.5 =
//       +50%; --no-timings 1 skips them entirely). --markdown 1 renders
//       the findings as a GitHub-flavored-markdown fragment (summary
//       table + finding lists) for drop-in BENCHMARKS.md updates. Exits
//       1 when any regression is found, so CI can gate on a checked-in
//       baseline.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/extras.h"
#include "analysis/l1.h"
#include "analysis/properties.h"
#include "exp/datasets.h"
#include "exp/parallel.h"
#include "exp/runner.h"
#include "exp/table_printer.h"
#include "graph/components.h"
#include "graph/edge_list_reader.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "obs/trace_summary.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/frontier.h"
#include "sampling/list_io.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/non_backtracking.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "scenario/report.h"
#include "scenario/spec.h"
#include "util/parse.h"
#include "util/srccheck.h"

namespace {

using namespace sgr;
using U64 = std::uint64_t;

/// Minimal --flag value parser: flags are "--name value"; a missing
/// required flag is an error, and so is a malformed value (Get<T>).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("expected --flag value, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error("missing required flag --" + key);
    }
    return it->second;
  }

  std::string GetOr(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }

  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  /// The flag's value parsed strictly (util/parse.h), or `dflt` when the
  /// flag is absent. A malformed or out-of-range value throws InputError
  /// naming the flag.
  template <typename T>
  T Get(const std::string& key, T dflt,
        T min = std::numeric_limits<T>::lowest(),
        T max = std::numeric_limits<T>::max()) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt
                               : ParseInput<T>(it->second, "--" + key, min,
                                               max);
  }

 private:
  std::map<std::string, std::string> values_;
};

int CmdGenerate(const Args& args) {
  // Flags map onto a GeneratorSpec, so `sgr generate` and a scenario's
  // generator object share one model dispatch (BuildGeneratorGraph).
  GeneratorSpec gen;
  gen.model = args.GetOr("model", "powerlaw");
  gen.nodes = args.Get<U64>("nodes", 3000);
  gen.edges_per_node = args.Get<U64>(
      "edges-per-node", gen.model == "community" ? 3 : 4);
  gen.triad_p = args.Get("triad-p", 0.4, 0.0, 1.0);
  gen.fringe_fraction = args.Get("fringe-fraction", 0.4, 0.0, 0.99);
  gen.edges = args.Get<U64>("edges", 0);
  gen.communities = args.Get<U64>("communities", 4);
  gen.bridges = args.Get<U64>("bridges", 0);
  gen.seed = args.Get<U64>("seed", 1);
  const Graph g = BuildGeneratorGraph(gen);
  WriteEdgeListFile(g, args.Get("out"));
  std::cout << "wrote " << args.Get("out") << ": n = " << g.NumNodes()
            << ", m = " << g.NumEdges() << "\n";
  return 0;
}

int CmdCrawl(const Args& args) {
  const Graph g = PreprocessDataset(ReadEdgeListFile(args.Get("graph")));
  const std::string method = args.GetOr("method", "rw");
  Rng rng(args.Get<U64>("seed", 2));
  const double fraction = args.Get("fraction", 0.1, 0.0, 1.0);
  const auto budget = static_cast<std::size_t>(
      std::max(1.0, fraction * static_cast<double>(g.NumNodes())));
  const NodeId seed = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));

  QueryOracle oracle(g);
  SamplingList list;
  if (method == "rw") {
    list = RandomWalkSample(oracle, seed, budget, rng);
  } else if (method == "nbrw") {
    list = NonBacktrackingWalkSample(oracle, seed, budget, rng);
  } else if (method == "mhrw") {
    list = MetropolisHastingsWalkSample(oracle, seed, budget, rng);
  } else if (method == "bfs") {
    list = BfsSample(oracle, seed, budget);
  } else if (method == "snowball") {
    list = SnowballSample(oracle, seed, budget, args.Get<U64>("k", 50, 1),
                          rng);
  } else if (method == "ff") {
    list = ForestFireSample(oracle, seed, budget,
                            args.Get("pf", 0.7, 0.0, 1.0), rng);
  } else if (method == "frontier") {
    const auto walkers = args.Get<U64>("walkers", 10, 1, 1000000);
    std::vector<NodeId> seeds;
    for (std::size_t i = 0; i < walkers; ++i) {
      seeds.push_back(static_cast<NodeId>(rng.NextIndex(g.NumNodes())));
    }
    list = FrontierSample(oracle, seeds, budget, rng);
  } else {
    throw std::runtime_error(
        "unknown crawl method '" + method +
        "' (rw|nbrw|mhrw|bfs|snowball|ff|frontier)");
  }
  WriteSamplingListFile(list, args.Get("out"));
  std::cout << "wrote " << args.Get("out") << ": " << list.Length()
            << " steps, " << list.NumQueried() << " nodes queried ("
            << 100.0 * static_cast<double>(list.NumQueried()) /
                   static_cast<double>(g.NumNodes())
            << "% of " << g.NumNodes() << ")\n";
  return 0;
}

int CmdRestore(const Args& args) {
  const SamplingList list = ReadSamplingListFile(args.Get("sample"));
  const std::string method = args.GetOr("method", "proposed");
  Rng rng(args.Get<U64>("seed", 3));
  RestorationOptions options;
  options.rewire.rewiring_coefficient = args.Get("rc", 500.0, 0.0);
  const std::string walk_type = args.GetOr("walk-type", "simple");
  if (walk_type != "simple" && walk_type != "nbrw") {
    throw std::runtime_error("--walk-type must be simple|nbrw, got '" +
                             walk_type + "'");
  }
  if (walk_type == "nbrw") {
    options.estimator.walk_type = WalkType::kNonBacktracking;
  }
  options.simplify_output = args.Get("simplify", false);

  RestorationResult result;
  if (method == "proposed") {
    result = RestoreProposed(list, options, rng);
  } else if (method == "gjoka") {
    result = RestoreGjoka(list, options, rng);
  } else if (method == "subgraph") {
    result = RestoreBySubgraphSampling(list);
  } else {
    throw std::runtime_error("unknown restore method '" + method +
                             "' (proposed|gjoka|subgraph)");
  }
  WriteEdgeListFile(result.graph, args.Get("out"));
  std::cout << "wrote " << args.Get("out")
            << ": n = " << result.graph.NumNodes()
            << ", m = " << result.graph.NumEdges() << " ("
            << TablePrinter::Fixed(result.total_seconds, 2) << " s total, "
            << TablePrinter::Fixed(result.rewiring_seconds, 2)
            << " s rewiring)\n";
  return 0;
}

PropertyOptions PathOptions(const Args& args) {
  PropertyOptions options;
  options.max_path_sources = args.Get<U64>("sources", 0);
  return options;
}

int CmdAnalyze(const Args& args) {
  const Graph g = ReadEdgeListFile(args.Get("graph"));
  const GraphProperties p = ComputeProperties(g, PathOptions(args));
  TablePrinter table(std::cout, {"Property", "Value"});
  table.AddRow({"nodes", std::to_string(p.num_nodes)});
  table.AddRow({"edges", std::to_string(g.NumEdges())});
  table.AddRow({"average degree", TablePrinter::Fixed(p.average_degree)});
  table.AddRow({"max degree", std::to_string(g.MaxDegree())});
  table.AddRow(
      {"clustering (avg local)", TablePrinter::Fixed(p.clustering_global)});
  table.AddRow({"average path length",
                TablePrinter::Fixed(p.average_path_length)});
  table.AddRow({"diameter", std::to_string(p.diameter)});
  table.AddRow({"largest eigenvalue",
                TablePrinter::Fixed(p.largest_eigenvalue, 2)});
  table.AddRow({"assortativity",
                TablePrinter::Fixed(DegreeAssortativity(g))});
  table.AddRow({"degeneracy", std::to_string(Degeneracy(g))});
  table.AddRow({"periphery share (deg<=2)",
                TablePrinter::Fixed(PeripheryShare(g))});
  table.AddRow(
      {"components", std::to_string(ComponentSizes(g).size())});
  table.Print();
  return 0;
}

int CmdCompare(const Args& args) {
  const Graph original = ReadEdgeListFile(args.Get("original"));
  const Graph generated = ReadEdgeListFile(args.Get("generated"));
  const PropertyOptions options = PathOptions(args);
  const auto distances =
      PropertyDistances(ComputeProperties(original, options),
                        ComputeProperties(generated, options));
  TablePrinter table(std::cout, {"Property", "L1 distance"});
  for (std::size_t i = 0; i < kNumProperties; ++i) {
    table.AddRow({PropertyNames()[i], TablePrinter::Fixed(distances[i])});
  }
  table.AddRow({"AVERAGE", TablePrinter::Fixed(AverageDistance(distances))});
  table.Print();
  return 0;
}

/// Loads a scenario from a built-in name or a JSON file path.
ScenarioSpec LoadScenarioSpec(const std::string& source) {
  if (IsBuiltinScenario(source)) return BuiltinScenario(source);
  std::ifstream in(source);
  if (!in) {
    throw std::runtime_error(
        "'" + source +
        "' is neither a built-in scenario (see `sgr scenarios list`) nor a "
        "readable file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ScenarioSpec::FromJson(Json::Parse(text.str()));
}

/// sgr run <scenario.json | built-in name> [--out FILE] [--threads N]
int CmdRun(const std::string& source, const Args& args) {
  // Data-source flags are sugar over their environment twins — the
  // loaders in exp/datasets.cc read only the environment, so flag and
  // env behave identically (flag wins when both are given).
  if (args.Has("dataset-dir")) {
    setenv("SGR_DATASET_DIR", args.Get("dataset-dir").c_str(), 1);
  }
  if (args.Has("snapshot-cache")) {
    setenv("SGR_SNAPSHOT_CACHE", args.Get("snapshot-cache").c_str(), 1);
  }
  const ScenarioSpec spec = LoadScenarioSpec(source);

  // Worker counts: flag beats environment beats spec (0 = hardware
  // concurrency throughout). The intra-trial engines are the rewiring
  // engine (only active when the spec's "rewire_batch" axis has a nonzero
  // value), the parallel assembly engine ("parallel_assembly": true), and
  // the chunked estimator pass (always active).
  const auto workers = [&args](const char* flag, const char* env,
                               std::size_t spec_value) {
    return args.Get<U64>(flag, EnvInput<U64>(env, spec_value, 0, kMaxThreads),
                         0, kMaxThreads);
  };
  const std::size_t threads = workers("threads", "SGR_THREADS", spec.threads);
  const std::size_t rewire_threads =
      workers("rewire-threads", "SGR_REWIRE_THREADS", spec.rewire_threads);
  const std::size_t assembly_threads = workers(
      "assembly-threads", "SGR_ASSEMBLY_THREADS", spec.assembly_threads);
  const std::size_t estimator_threads = workers(
      "estimator-threads", "SGR_ESTIMATOR_THREADS", spec.estimator_threads);

  std::cerr << "scenario '" << spec.name << "': " << spec.datasets.size()
            << " dataset(s) x " << spec.fractions.size()
            << " fraction(s), " << spec.trials << " trials, threads = "
            << ResolveThreadCount(threads);
  const bool batched_rewire =
      std::any_of(spec.rewire_batches.begin(), spec.rewire_batches.end(),
                  [](std::size_t batch) { return batch != 0; });
  if (batched_rewire) {
    std::cerr << ", rewire on " << ResolveThreadCount(rewire_threads)
              << " thread(s)";
  }
  if (spec.parallel_assembly) {
    std::cerr << ", assembly on " << ResolveThreadCount(assembly_threads)
              << " thread(s)";
  }
  std::cerr << ", estimator on " << ResolveThreadCount(estimator_threads)
            << " thread(s)\n";

  // Observability knobs: --trace beats $SGR_TRACE (a path), --metrics
  // beats $SGR_METRICS (0|1). Both default to off — the null-sink path.
  const std::string trace_path =
      args.GetOr("trace", EnvText("SGR_TRACE").value_or(""));
  obs::EnableMetrics(
      args.Get("metrics", EnvInput<bool>("SGR_METRICS", false)));
  if (!trace_path.empty()) obs::StartTracing();

  const ScenarioRunResult result =
      RunScenario(spec, threads, &std::cerr, rewire_threads,
                  assembly_threads, estimator_threads);

  // RunScenario has joined every worker, so the stop/collect sequence
  // meets the tracer's quiescence contract.
  if (!trace_path.empty()) {
    obs::StopTracing();
    obs::WriteTrace(trace_path);
    std::cout << "wrote " << trace_path << ": "
              << obs::CollectTraceEvents().size() << " span(s)\n";
  }
  obs::EnableMetrics(false);

  const Json report = ScenarioReportToJson(result);
  if (args.Has("out")) {
    const std::string path = args.Get("out");
    WriteJsonFile(report, path);
    std::cout << "wrote " << path << ": " << result.cells.size()
              << " cell(s)\n";
  } else {
    std::cout << report.Dump(2) << "\n";
  }
  return 0;
}

/// sgr diff <old.json> <new.json> [--l1-tol X] [--time-tol R]
/// [--no-timings 1] [--markdown 1]
int CmdDiff(const std::string& old_path, const std::string& new_path,
            const Args& args) {
  const auto load = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      throw std::runtime_error("cannot read report '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return Json::Parse(text.str());
  };
  DiffOptions options;
  options.l1_tolerance = args.Get("l1-tol", options.l1_tolerance, 0.0);
  options.time_tolerance =
      args.Get("time-tol", options.time_tolerance, 0.0);
  options.compare_timings = !args.Get("no-timings", false);
  const bool markdown = args.Get("markdown", false);

  const DiffResult result =
      DiffReports(load(old_path), load(new_path), options);
  if (markdown) {
    PrintDiffMarkdown(result, old_path, new_path, std::cout);
  } else {
    PrintDiff(result, std::cout);
  }
  return result.HasRegression() ? 1 : 0;
}

/// sgr trace summarize <trace.json>
int CmdTrace(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "";
  if (verb != "summarize" || argc < 4) {
    throw std::runtime_error("usage: sgr trace summarize <trace.json>");
  }
  std::ifstream in(argv[3]);
  if (!in) {
    throw std::runtime_error(std::string("cannot read trace '") + argv[3] +
                             "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  // SummarizeTrace is the strict schema validator: a malformed trace
  // throws (exit 1 through main's handler), which is what CI gates on.
  obs::PrintTraceSummary(obs::SummarizeTrace(Json::Parse(text.str())),
                         std::cout);
  return 0;
}

/// sgr check [paths...] [--baseline FILE]
int CmdCheck(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string baseline_path = "tools/sgr_check_baseline.txt";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        throw std::runtime_error("usage: sgr check [paths...] "
                                 "[--baseline FILE]");
      }
      baseline_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      throw std::runtime_error("unknown check flag '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths.push_back("src");
  const CheckResult result =
      CheckSourceTree(paths, LoadCheckBaseline(baseline_path));
  PrintCheckReport(result, std::cout);
  return result.Clean() ? 0 : 1;
}

/// sgr scenarios list | show <name>
int CmdScenarios(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "list";
  if (verb == "list") {
    TablePrinter table(std::cout, {"Scenario", "Description"});
    for (const std::string& name : BuiltinScenarioNames()) {
      table.AddRow({name, BuiltinScenarioDescription(name)});
    }
    table.Print();
    std::cout << "\nrun one with `sgr run <name> --out results.json`, or "
                 "`sgr scenarios show <name> > my.json` to start a custom "
                 "scenario.\n";
    return 0;
  }
  if (verb == "show") {
    if (argc < 4) {
      throw std::runtime_error("usage: sgr scenarios show <name>");
    }
    std::cout << BuiltinScenario(argv[3]).ToJson().Dump(2) << "\n";
    return 0;
  }
  throw std::runtime_error("unknown scenarios verb '" + verb +
                           "' (list|show)");
}

/// sgr datasets list
/// sgr datasets export NAME --out FILE [--scale S]
/// sgr datasets ingest FILE [--threads N] [--compress auto|on|off]
///              [--cache DIR]
int CmdDatasets(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "list";
  if (verb == "list") {
    TablePrinter table(std::cout, {"Dataset", "Synthetic n", "Paper n",
                                   "Paper m"});
    std::vector<DatasetSpec> specs = StandardDatasets();
    specs.push_back(YoutubeDataset());
    for (const DatasetSpec& spec : specs) {
      table.AddRow({spec.name, std::to_string(spec.num_nodes),
                    std::to_string(spec.paper_nodes),
                    std::to_string(spec.paper_edges)});
    }
    table.Print();
    std::cout << "\nfiles named <dataset>.txt under $SGR_DATASET_DIR (or "
                 "--dataset-dir) replace the synthetic stand-ins; "
                 "`sgr datasets export` writes a stand-in as a canonical "
                 "edge list the ingester reloads id-exactly.\n";
    return 0;
  }
  if (verb == "export") {
    if (argc < 4) {
      throw std::runtime_error(
          "usage: sgr datasets export <name> --out FILE [--scale S]");
    }
    const Args args(argc, argv, 4);
    const DatasetSpec spec = DatasetByName(argv[3]);
    const double scale = args.Get("scale", 1.0, kMinDatasetScale, kMaxDatasetScale);
    const auto n = static_cast<std::size_t>(
        static_cast<double>(spec.num_nodes) * scale);
    if (scale <= 0.0 || n == 0) {
      throw std::runtime_error("--scale must be positive (and large "
                               "enough to keep at least one node)");
    }
    Rng rng(spec.seed);
    const CsrGraph csr(PreprocessDataset(
        GenerateSocialGraph(n, spec.edges_per_node, spec.triad_probability,
                            spec.fringe_fraction, rng)));
    WriteCanonicalEdgeListFile(csr, args.Get("out"));
    std::cout << "wrote " << args.Get("out") << ": n = " << csr.NumNodes()
              << ", m = " << csr.NumEdges() << " (canonical)\n";
    return 0;
  }
  if (verb == "ingest") {
    if (argc < 4) {
      throw std::runtime_error(
          "usage: sgr datasets ingest <file> [--threads N] "
          "[--compress auto|on|off] [--cache DIR]");
    }
    const Args args(argc, argv, 4);
    IngestOptions options;
    options.threads = args.Get<U64>("threads", 1, 0, kMaxThreads);
    const std::string compress = args.GetOr("compress", "auto");
    if (compress == "on") {
      options.compress = IngestOptions::Compress::kOn;
    } else if (compress == "off") {
      options.compress = IngestOptions::Compress::kOff;
    } else if (compress != "auto") {
      throw std::runtime_error("--compress must be auto|on|off");
    }
    options.cache_dir = args.GetOr("cache", "");
    Timer timer;
    const IngestResult result = IngestEdgeListFile(argv[3], options);
    const double seconds = timer.Seconds();
    const IngestStats& stats = result.stats;
    std::cout << "file_hash " << HashToHex(result.content_hash) << "\n"
              << "csr_hash " << HashToHex(CsrContentHash(result.graph))
              << "\n"
              << "from_cache " << (result.from_cache ? 1 : 0) << "\n"
              << "canonical " << (stats.canonical ? 1 : 0) << "\n"
              << "spilled " << (stats.spilled ? 1 : 0) << "\n"
              << "bytes " << stats.file_bytes << "\n"
              << "edge_lines " << stats.edge_lines << "\n"
              << "raw_nodes " << stats.raw_nodes << "\n"
              << "self_loops_dropped " << stats.self_loops_dropped << "\n"
              << "parallel_edges_collapsed "
              << stats.parallel_edges_collapsed << "\n"
              << "nodes " << result.graph.NumNodes() << "\n"
              << "edges " << result.graph.NumEdges() << "\n"
              << "compressed " << (result.graph.compressed() ? 1 : 0)
              << "\n"
              << "neighbor_bytes " << result.graph.NeighborStorageBytes()
              << "\n"
              << "seconds " << seconds << "\n";
    if (seconds > 0.0 && !result.from_cache) {
      std::cout << "edges_per_second "
                << static_cast<double>(stats.edge_lines) / seconds << "\n"
                << "mb_per_second "
                << static_cast<double>(stats.file_bytes) / 1.0e6 / seconds
                << "\n";
    }
    return 0;
  }
  throw std::runtime_error("unknown datasets verb '" + verb +
                           "' (list|export|ingest)");
}

void PrintUsage() {
  std::cout <<
      "usage: sgr <command> [--flag value ...]\n"
      "commands:\n"
      "  generate  --out FILE [--model powerlaw|ba|er|community|social]\n"
      "            [--nodes N] [--edges-per-node M] [--triad-p P] [--seed S]\n"
      "            [--edges M] [--communities C] [--bridges B]\n"
      "            [--fringe-fraction F]\n"
      "  crawl     --graph FILE --out FILE [--method rw|nbrw|mhrw|bfs|\n"
      "            snowball|ff|frontier] [--fraction F] [--seed S]\n"
      "  restore   --sample FILE --out FILE [--method proposed|gjoka|\n"
      "            subgraph] [--rc RC] [--seed S] [--walk-type simple|nbrw]\n"
      "            [--simplify 0|1]\n"
      "  analyze   --graph FILE [--sources N]\n"
      "  compare   --original FILE --generated FILE [--sources N]\n"
      "  run       SCENARIO(.json file or built-in name) [--out FILE]\n"
      "            [--threads N]   (or SGR_THREADS; 0 = all cores)\n"
      "            [--rewire-threads N]   (or SGR_REWIRE_THREADS; used\n"
      "            when the spec's rewire_batch axis is nonzero)\n"
      "            [--assembly-threads N]   (or SGR_ASSEMBLY_THREADS;\n"
      "            used with parallel_assembly: true)\n"
      "            [--estimator-threads N]   (or SGR_ESTIMATOR_THREADS)\n"
      "            [--trace FILE]   (or SGR_TRACE; Chrome trace_event\n"
      "            JSON of the whole run)\n"
      "            [--metrics 0|1]   (or SGR_METRICS; per-cell \"metrics\"\n"
      "            block in the report)\n"
      "            [--dataset-dir DIR]   (or SGR_DATASET_DIR; require\n"
      "            real edge lists <dataset>.txt — missing file is a hard\n"
      "            error, never a silent synthetic fallback)\n"
      "            [--snapshot-cache DIR]   (or SGR_SNAPSHOT_CACHE;\n"
      "            content-hash-keyed binary CSR cache for ingested\n"
      "            files)\n"
      "  datasets  list | export NAME --out FILE [--scale S] |\n"
      "            ingest FILE [--threads N] [--compress auto|on|off]\n"
      "            [--cache DIR]   (out-of-core ingest; prints stats and\n"
      "            the representation-independent csr_hash)\n"
      "  diff      OLD.json NEW.json [--l1-tol X] [--time-tol R]\n"
      "            [--no-timings 1] [--markdown 1]   (exit 1 on\n"
      "            regression)\n"
      "  scenarios list | show NAME\n"
      "  trace     summarize FILE   (validate + per-span time table)\n"
      "  check     [PATHS...] [--baseline FILE]   (determinism lint over\n"
      "            the source tree; default path src, default baseline\n"
      "            tools/sgr_check_baseline.txt; exit 1 on violations)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "run") {
      if (argc < 3 || argv[2][0] == '-') {
        throw std::runtime_error(
            "usage: sgr run <scenario.json | built-in name> [--out FILE] "
            "[--threads N] [--rewire-threads N] [--assembly-threads N] "
            "[--estimator-threads N]");
      }
      return CmdRun(argv[2], Args(argc, argv, 3));
    }
    if (command == "diff") {
      if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-') {
        throw std::runtime_error(
            "usage: sgr diff <old.json> <new.json> [--l1-tol X] "
            "[--time-tol R] [--no-timings 1] [--markdown 1]");
      }
      return CmdDiff(argv[2], argv[3], Args(argc, argv, 4));
    }
    if (command == "scenarios") return CmdScenarios(argc, argv);
    if (command == "datasets") return CmdDatasets(argc, argv);
    if (command == "trace") return CmdTrace(argc, argv);
    if (command == "check") return CmdCheck(argc, argv);
    Args args(argc, argv, 2);
    if (command == "generate") return CmdGenerate(args);
    if (command == "crawl") return CmdCrawl(args);
    if (command == "restore") return CmdRestore(args);
    if (command == "analyze") return CmdAnalyze(args);
    if (command == "compare") return CmdCompare(args);
    std::cerr << "unknown command '" << command << "'\n";
    PrintUsage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "sgr " << command << ": " << e.what() << "\n";
    return 1;
  }
}
