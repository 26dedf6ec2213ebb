// sgr — command-line front end for the social-graph-restoration library.
//
// Subcommands mirror the paper's workflow end to end:
//
//   sgr generate --model powerlaw --nodes 3000 --edges-per-node 4
//                --triad-p 0.4 --seed 1 --out graph.txt
//       Generate a synthetic social graph, preprocessed as the scenario
//       engine's generator datasets are, as a canonical edge list.
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
//           [--trace trace.json] [--metrics 0|1]
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
//       concurrency) overrides the scenario's own thread count: the
//       number of trials that run at once, each on one thread. The
//       report's non-timing content is identical for every value.
//       Without --out the report goes to stdout.
//
//       Every flag value and SGR_* variable is parsed strictly: the
//       whole string must be one value in the input's range (digits only
//       for counts, 0|1 for switches), or the command exits 1 naming the
//       flag or variable. Every subcommand declares its flags, and a flag
//       it does not take (`--thread 4`) also exits 1 naming it. A flag
//       beats its SGR_* twin, which beats the spec key; the precedence
//       table is in docs/ARCHITECTURE.md, "Flags and environment
//       variables".
//
//       --trace FILE (or SGR_TRACE) records a span trace of the whole
//       run — crawls, estimation chunks, assembly class pairs, rewiring
//       phases, pool tasks, cells — as Chrome trace_event JSON (load it
//       in chrome://tracing / Perfetto, or `sgr trace summarize` it).
//       --metrics 1 (or SGR_METRICS=1) adds a per-cell "metrics" block
//       (oracle queries, rewiring counters, peak RSS) to the report.
//       Both are pure observation: the report's
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
//   sgr datasets ingest youtube.txt [--threads 4] [--cache .sgr-cache]
//       Inspect the dataset registry, write a synthetic stand-in as a
//       canonical edge list (`# sgr-canonical 1`: dense ids the ingester
//       reloads verbatim), or run the out-of-core ingester directly and
//       print its stats — including `csr_hash`, a content hash of the
//       resulting snapshot that CI compares across thread counts.
//       Every path flag (`--cache` here, `--trace`, `--dataset-dir` and
//       `--snapshot-cache` on `sgr run`) rejects an empty value by name.
//
//   sgr diff old.json new.json [--l1-tol X] [--time-tol R] [--no-timings]
//            [--markdown 1]
//       Compare two sgr-report/1 files: cells are paired by (dataset, every
//       knob coordinate: fraction, walk, crawler, estimator, rc,
//       protect_subgraph, rewire_batch (retired, always 0),
//       frontier_walkers, noise) and each
//       method aggregate is checked for deterministic L1 drift (tolerance
//       --l1-tol, default 1e-9 — same spec + seed must reproduce the same
//       numbers) and
//       timing slowdowns (relative tolerance --time-tol, default 0.5 =
//       +50%; --no-timings 1 skips them entirely). --markdown 1 renders
//       the findings as a GitHub-flavored-markdown fragment (summary
//       table + finding lists) for drop-in BENCHMARKS.md updates. Exits
//       1 when any regression is found, so CI can gate on a checked-in
//       baseline.
//
//   sgr table results.json
//       Render an sgr-report/1 file as the paper's tables: avg L1
//       (mean +- sd) per cell and method (Table III, Fig. 3, the
//       ablations), crawl steps / generation seconds / final rewiring
//       objective per (cell, method) (Table IV), and a method x property
//       table per cell (Tables II and V). A report from a built-in
//       scenario gets the paper's reference values printed above. Takes
//       no flags; a malformed report exits 1 naming the file and field.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
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
  // The canonical form keeps the engine's ids, so `sgr crawl` on the file
  // walks the graph `sgr run` uses for the same generator spec.
  const CsrGraph g = BuildGeneratorGraph(gen);
  WriteCanonicalEdgeListFile(g, args.Get("out"));
  std::cout << "wrote " << args.Get("out") << ": n = " << g.NumNodes()
            << ", m = " << g.NumEdges() << "\n";
  return 0;
}

/// The edge list at `path` as read, loops and parallel edges kept. A file
/// with no nodes has nothing to crawl or score, so it is rejected by name.
CsrGraph ReadGraphFile(const std::string& path) {
  CsrGraph g = ReadEdgeListCsr(path);
  if (g.NumNodes() == 0) {
    throw std::runtime_error("'" + path + "' has no nodes");
  }
  return g;
}

int CmdCrawl(const Args& args) {
  const CsrGraph g = PreprocessDataset(ReadGraphFile(args.Get("graph")));
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
  const CsrGraph g = ReadGraphFile(args.Get("graph"));
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
  const CsrGraph original = ReadGraphFile(args.Get("original"));
  const CsrGraph generated = ReadGraphFile(args.Get("generated"));
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
  // env behave identically (flag wins when both are given). An empty
  // variable counts as unset, so an empty flag value is rejected rather
  // than silently dropped.
  for (const auto& [flag, variable] :
       {std::pair{"dataset-dir", "SGR_DATASET_DIR"},
        std::pair{"snapshot-cache", "SGR_SNAPSHOT_CACHE"}}) {
    if (args.Has(flag)) setenv(variable, args.GetPathOr(flag, "").c_str(), 1);
  }
  const ScenarioSpec spec = LoadScenarioSpec(source);

  // Worker count: flag beats environment beats spec (0 = hardware
  // concurrency).
  const std::size_t threads = args.Get<U64>(
      "threads", EnvInput<U64>("SGR_THREADS", spec.threads, 0, kMaxThreads),
      0, kMaxThreads);

  std::cerr << "scenario '" << spec.name << "': " << spec.datasets.size()
            << " dataset(s) x " << spec.fractions.size()
            << " fraction(s), " << spec.trials << " trials, threads = "
            << ResolveThreadCount(threads) << "\n";

  // Observability knobs: --trace beats $SGR_TRACE (a path), --metrics
  // beats $SGR_METRICS (0|1). Both default to off — the null-sink path.
  const std::string trace_path =
      args.GetPathOr("trace", EnvText("SGR_TRACE").value_or(""));
  obs::EnableMetrics(
      args.Get("metrics", EnvInput<bool>("SGR_METRICS", false)));
  if (!trace_path.empty()) obs::StartTracing();

  const ScenarioRunResult result = RunScenario(spec, threads, &std::cerr);

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

/// Reads and parses a report file; every failure names the file.
Json LoadReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read report '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return Json::Parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// sgr diff <old.json> <new.json> [--l1-tol X] [--time-tol R]
/// [--no-timings 1] [--markdown 1]
int CmdDiff(const std::string& old_path, const std::string& new_path,
            const Args& args) {
  DiffOptions options;
  options.l1_tolerance = args.Get("l1-tol", options.l1_tolerance, 0.0);
  options.time_tolerance =
      args.Get("time-tol", options.time_tolerance, 0.0);
  options.compare_timings = !args.Get("no-timings", false);
  const bool markdown = args.Get("markdown", false);

  const DiffResult result =
      DiffReports(LoadReport(old_path), LoadReport(new_path), options);
  if (markdown) {
    PrintDiffMarkdown(result, old_path, new_path, std::cout);
  } else {
    PrintDiff(result, std::cout);
  }
  return result.HasRegression() ? 1 : 0;
}

/// sgr table <report.json>. The tables are rendered in full before any
/// is printed, so a malformed report prints only the error.
int CmdTable(const std::string& path) {
  const Json report = LoadReport(path);
  std::ostringstream tables;
  try {
    PrintReportTable(report, tables);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  std::cout << tables.str();
  return 0;
}

/// sgr trace summarize <trace.json>
int CmdTrace(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "";
  if (verb != "summarize" || argc < 4) {
    throw std::runtime_error("usage: sgr trace summarize <trace.json>");
  }
  const Args no_flags(argc, argv, 4, {});
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

/// sgr check [paths...]
int CmdCheck(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      throw InputError("unknown flag " + arg + " (sgr check takes none)");
    }
    paths.push_back(arg);
  }
  if (paths.empty()) paths.push_back("src");
  const CheckResult result = CheckSourceTree(paths);
  PrintCheckReport(result, std::cout);
  return result.Clean() ? 0 : 1;
}

/// sgr scenarios list | show <name>
int CmdScenarios(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "list";
  if (verb == "list") {
    const Args no_flags(argc, argv, 3, {});
    TablePrinter table(std::cout, {"Scenario", "Description"});
    for (const std::string& name : BuiltinScenarioNames()) {
      const std::string description = BuiltinScenarioDescription(name);
      table.AddRow({name, description.substr(0, description.find('\n'))});
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
    const Args no_flags(argc, argv, 4, {});
    std::cout << BuiltinScenario(argv[3]).ToJson().Dump(2) << "\n";
    return 0;
  }
  throw std::runtime_error("unknown scenarios verb '" + verb +
                           "' (list|show)");
}

/// sgr datasets list
/// sgr datasets export NAME --out FILE [--scale S]
/// sgr datasets ingest FILE [--threads N] [--cache DIR]
int CmdDatasets(int argc, char** argv) {
  const std::string verb = argc > 2 ? argv[2] : "list";
  if (verb == "list") {
    const Args no_flags(argc, argv, 3, {});
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
    const Args args(argc, argv, 4, {"out", "scale"});
    const DatasetSpec spec = DatasetByName(argv[3]);
    const CsrGraph csr = GenerateDataset(
        spec, args.Get("scale", 1.0, kMinDatasetScale, kMaxDatasetScale));
    WriteCanonicalEdgeListFile(csr, args.Get("out"));
    std::cout << "wrote " << args.Get("out") << ": n = " << csr.NumNodes()
              << ", m = " << csr.NumEdges() << " (canonical)\n";
    return 0;
  }
  if (verb == "ingest") {
    if (argc < 4) {
      throw std::runtime_error(
          "usage: sgr datasets ingest <file> [--threads N] [--cache DIR]");
    }
    const Args args(argc, argv, 4, {"threads", "cache"});
    IngestOptions options;
    options.threads = args.Get<U64>("threads", 1, 0, kMaxThreads);
    options.cache_dir = args.GetPathOr("cache", "");
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
      "            [--threads N]   (or SGR_THREADS; trials run at once,\n"
      "            each on one thread; 0 = all cores)\n"
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
      "            ingest FILE [--threads N] [--cache DIR]   (out-of-core\n"
      "            ingest; prints stats and the csr_hash content hash)\n"
      "  diff      OLD.json NEW.json [--l1-tol X] [--time-tol R]\n"
      "            [--no-timings 1] [--markdown 1]   (exit 1 on\n"
      "            regression)\n"
      "  table     REPORT.json   (the paper's tables from a report)\n"
      "  scenarios list | show NAME\n"
      "  trace     summarize FILE   (validate + per-span time table)\n"
      "  check     [PATHS...]   (determinism lint over the source tree;\n"
      "            default path src; exit 1 on violations)\n";
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
            "[--threads N]");
      }
      return CmdRun(argv[2],
                    Args(argc, argv, 3,
                         {"out", "threads", "trace", "metrics",
                          "dataset-dir", "snapshot-cache"}));
    }
    if (command == "diff") {
      if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-') {
        throw std::runtime_error(
            "usage: sgr diff <old.json> <new.json> [--l1-tol X] "
            "[--time-tol R] [--no-timings 1] [--markdown 1]");
      }
      return CmdDiff(argv[2], argv[3],
                     Args(argc, argv, 4,
                          {"l1-tol", "time-tol", "no-timings", "markdown"}));
    }
    if (command == "table") {
      const bool has_path = argc > 2 && argv[2][0] != '-';
      const Args no_flags(argc, argv, has_path ? 3 : 2, {});
      if (!has_path) throw std::runtime_error("usage: sgr table <report.json>");
      return CmdTable(argv[2]);
    }
    if (command == "scenarios") return CmdScenarios(argc, argv);
    if (command == "datasets") return CmdDatasets(argc, argv);
    if (command == "trace") return CmdTrace(argc, argv);
    if (command == "check") return CmdCheck(argc, argv);
    if (command == "generate") {
      return CmdGenerate(Args(argc, argv, 2,
                              {"out", "model", "nodes", "edges-per-node",
                               "triad-p", "fringe-fraction", "edges",
                               "communities", "bridges", "seed"}));
    }
    if (command == "crawl") {
      return CmdCrawl(Args(argc, argv, 2,
                           {"graph", "out", "method", "fraction", "seed", "k",
                            "pf", "walkers"}));
    }
    if (command == "restore") {
      return CmdRestore(Args(argc, argv, 2,
                             {"sample", "out", "method", "rc", "seed",
                              "walk-type", "simplify"}));
    }
    if (command == "analyze") {
      return CmdAnalyze(Args(argc, argv, 2, {"graph", "sources"}));
    }
    if (command == "compare") {
      return CmdCompare(
          Args(argc, argv, 2, {"original", "generated", "sources"}));
    }
    std::cerr << "unknown command '" << command << "'\n";
    PrintUsage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "sgr " << command << ": " << e.what() << "\n";
    return 1;
  }
}
