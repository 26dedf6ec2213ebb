// perfbench — the restoration benchmark's measuring program.
//
//   perfbench --workload NAME --spec FILE --digests FILE
//             --seed N --seconds S --trace 0|1 --trace-out FILE
//
// Untraced (--trace 0): runs pass 0 of the workload once untimed, then
// times passes 0, 1, 2, ... of the workload's scenario through the public
// RunScenario call until at least kMinPasses passes and S seconds are
// done, timing the dataset set-up (LoadDatasetCsr plus ComputeProperties
// of every original graph) once before each pass. Pass 0's post-StripVolatile
// report digest must equal the digest recorded for (workload, seed) in
// the digests file, when there is one, and both runs of pass 0 must agree.
//
// Traced (--trace 1): runs pass 0 untraced and traced in alternation (the
// ratio of the two medians is the tracing overhead), then replays it by
// calling each layer's public functions itself, in the order RunExperiment
// / RestoreProposed / RestoreGjoka call them with the same seeds, timing
// every call and measuring the peak memory of assembly, rewiring and
// evaluation. The replay must reproduce the one-call pipeline exactly: the
// same generated edge lists, the same property distances, and split
// analyzers equal to ComputeProperties.
//
// Either mode prints a human-readable table and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "dk/dk_construct.h"
#include "dk/dk_extract.h"
#include "estimation/estimators.h"
#include "exp/datasets.h"
#include "exp/parallel.h"
#include "exp/runner.h"
#include "graph/csr_graph.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "obs/trace_summary.h"
#include "restore/assembler.h"
#include "restore/rewirer.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/perturbed_oracle.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "sampling/subgraph.h"
#include "scenario/engine.h"
#include "scenario/report.h"
#include "scenario/spec.h"
#include "util/json.h"

extern char** environ;

namespace sgr::perfbench {
namespace {

// Passes every untraced run makes, however short --seconds is. The
// quality metrics are the median over exactly these passes, so they are a
// pure function of the seed.
constexpr std::size_t kMinPasses = 10;

// Untraced/traced pairs of pass 0 a traced run times for the tracing
// overhead.
constexpr int kOverheadPairs = 3;

// ---------------------------------------------------------------------------
// Strict argument parsing
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::string spec_path;
  std::string digests_path;
  std::string trace_out;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
};

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + ": expected an unsigned decimal "
                                "integer, got '" + text + "'");
  }
  std::uint64_t value = 0;
  for (char c : text) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      throw std::invalid_argument(flag + ": '" + text + "' overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    if (!values.emplace(flag, argv[i + 1]).second) {
      throw std::invalid_argument(flag + ": given twice");
    }
  }
  const auto take = [&values](const std::string& flag) {
    const auto it = values.find(flag);
    if (it == values.end()) throw std::invalid_argument(flag + ": required");
    std::string value = it->second;
    values.erase(it);
    return value;
  };
  Args args;
  args.workload = take("--workload");
  args.spec_path = take("--spec");
  args.digests_path = take("--digests");
  args.trace_out = take("--trace-out");
  args.seed = ParseUnsigned("--seed", take("--seed"));
  args.seconds = ParseUnsigned("--seconds", take("--seconds"));
  const std::string trace = take("--trace");
  if (!values.empty()) {
    throw std::invalid_argument(values.begin()->first + ": unknown flag");
  }
  if (args.seconds == 0 || args.seconds > 3600) {
    throw std::invalid_argument("--seconds: must be in [1, 3600]");
  }
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace: must be 0 or 1, got '" + trace +
                                "'");
  }
  args.trace = trace == "1";
  return args;
}

/// The library reads SGR_* variables (dataset directory, scale, snapshot
/// cache, ingest threads, compression); a workload is only hermetic if
/// none of them is set.
void RejectSgrEnvironment() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "SGR_", 4) == 0) {
      const std::string assignment = *entry;
      throw std::invalid_argument(
          "refusing to run with " +
          assignment.substr(0, assignment.find('=')) +
          " set: workloads take every input from their spec and --seed");
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Parses a workload spec strictly (ScenarioSpec::FromJson). The spec may
/// not carry its own seed_base (PassSpec sets it from --seed), must fix
/// its dataset_scale, and must stay inside the configuration subset the
/// replay reproduces: registry datasets, the simple random walk, the
/// cooperative oracle, and the sequential assembly and rewiring engines.
ScenarioSpec LoadWorkload(const Args& args) {
  const Json document = Json::Parse(ReadFile(args.spec_path));
  if (!document.IsObject()) throw std::invalid_argument("spec: not an object");
  if (document.Find("seed_base") != nullptr) {
    throw std::invalid_argument("spec: seed_base comes from --seed only");
  }
  ScenarioSpec spec = ScenarioSpec::FromJson(document);
  if (spec.name != args.workload) {
    throw std::invalid_argument("spec: name '" + spec.name +
                                "' does not match the workload");
  }
  if (!(spec.dataset_scale > 0.0)) {
    throw std::invalid_argument("spec: dataset_scale must be fixed");
  }
  for (const ScenarioDataset& dataset : spec.datasets) {
    if (dataset.generator) {
      throw std::invalid_argument("spec: only registry datasets replay");
    }
  }
  const bool replayable =
      spec.walks == std::vector<WalkKind>{WalkKind::kSimple} &&
      spec.crawlers == std::vector<CrawlerKind>{CrawlerKind::kRw} &&
      spec.rewire_batches == std::vector<std::size_t>{0} &&
      !spec.parallel_assembly && !spec.simplify_output &&
      !spec.track_properties &&
      std::none_of(spec.noises.begin(), spec.noises.end(),
                   [](const CrawlNoise& n) { return n.Active(); });
  if (!replayable) {
    throw std::invalid_argument("spec: outside the replayable subset");
  }
  return spec;
}

/// Pass p of a run executes the workload at seed base DeriveSeed(seed, p):
/// every pass crawls fresh inputs, and all of them are a pure function of
/// --seed. Pass 0 is the one the digest record and the replay cover.
ScenarioSpec PassSpec(ScenarioSpec spec, std::uint64_t seed, std::size_t p) {
  spec.seed_base = DeriveSeed(seed, p);
  return spec;
}

// ---------------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------------

std::string Digest(const Json& report) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const unsigned char c : StripVolatile(report).Dump(0)) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << hash;
  return hex.str();
}

std::optional<std::string> RecordedDigest(const Args& args) {
  const Json record = Json::Parse(ReadFile(args.digests_path));
  const Json* workload = record.Find(args.workload);
  if (workload == nullptr) return std::nullopt;
  const Json* digest = workload->Find(std::to_string(args.seed));
  if (digest == nullptr) return std::nullopt;
  return digest->AsString();
}

/// Pass 0 of a run must reproduce the digest recorded for its seed, when
/// there is one, and every later run of pass 0 must reproduce the first.
class OutputCheck {
 public:
  explicit OutputCheck(std::optional<std::string> recorded)
      : recorded_(std::move(recorded)) {}

  bool Accept(const std::string& digest) {
    if (!first_) {
      first_ = digest;
      return !recorded_ || digest == *recorded_;
    }
    return digest == *first_;
  }

  std::string Describe() const {
    return "digest " + first_.value_or("none") +
           (recorded_ ? " (recorded)" : " (unrecorded seed)");
  }

 private:
  std::optional<std::string> recorded_;
  std::optional<std::string> first_;
};

// ---------------------------------------------------------------------------
// Memory probes
// ---------------------------------------------------------------------------

std::size_t StatusBytes(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_length = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_length, key) == 0 && line.size() > key_length &&
        line[key_length] == ':') {
      return static_cast<std::size_t>(
                 std::stoull(line.substr(key_length + 1))) *
             1024;
    }
  }
  return 0;
}

/// Peak-memory growth of one call: returns freed heap to the kernel,
/// records the resident size, and resets the high-water mark by writing
/// 5 to /proc/self/clear_refs. Growth() is the new high-water mark minus
/// that starting size. When clear_refs is not writable the probe reports
/// itself unavailable and its metrics are left out, never zeroed.
class PeakProbe {
 public:
  PeakProbe() {
    malloc_trim(0);
    start_ = StatusBytes("VmRSS");
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    ok_ = static_cast<bool>(clear) && start_ > 0;
  }
  bool ok() const { return ok_; }
  double Growth() const {
    const std::size_t peak = StatusBytes("VmHWM");
    return peak > start_ ? static_cast<double>(peak - start_) : 0.0;
  }

 private:
  std::size_t start_ = 0;
  bool ok_ = false;
};

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;
};

void PrintResult(const std::string& title, const std::vector<Metric>& metrics,
                 bool correct, std::size_t attempted, std::size_t failed) {
  std::cout << title << "\n";
  std::cout << std::left << std::setw(32) << "metric" << std::setw(18)
            << "value" << "unit\n";
  Json values = Json::Object();
  for (const Metric& m : metrics) {
    std::ostringstream value;
    value << std::setprecision(6) << m.value;
    std::cout << std::left << std::setw(32) << m.name << std::setw(18)
              << value.str() << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
    Json entry = Json::Object();
    entry.Set("value", Json::Number(m.value));
    entry.Set("unit", Json::String(m.unit));
    values.Set(m.name, std::move(entry));
  }
  std::cout << std::left << std::setw(32) << "fail_ratio" << std::setw(18)
            << (attempted == 0 ? 1.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted))
            << "ratio  (" << failed << " of " << attempted
            << " trials)\n";
  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Number(static_cast<double>(attempted)));
  result.Set("failed", Json::Number(static_cast<double>(failed)));
  result.Set("metrics", std::move(values));
  std::cout << result.Dump(0) << std::endl;
}

// ---------------------------------------------------------------------------
// Untraced mode: end-to-end metrics
// ---------------------------------------------------------------------------

std::size_t TrialsPerPass(const ScenarioSpec& spec) {
  return spec.datasets.size() * spec.ExpandKnobs().size() * spec.trials;
}

/// The per-dataset set-up RunScenario performs before its trial matrix.
double TimeSetup(const ScenarioSpec& spec) {
  const PropertyOptions options =
      spec.ToExperimentConfig(spec.fractions.front()).property_options;
  Timer timer;
  for (const ScenarioDataset& dataset : spec.datasets) {
    const CsrGraph graph =
        LoadDatasetCsr(DatasetByName(dataset.name), spec.dataset_scale);
    ComputeProperties(graph, options);
  }
  return timer.Seconds();
}

/// Mean over a pass's trials of `kind`'s generation seconds, and the mean
/// over its cells of `kind`'s mean 12-property L1.
struct MethodPass {
  double restore_s = 0.0;
  double avg_l1 = 0.0;
};

MethodPass SummarizeMethod(const ScenarioRunResult& result, MethodKind kind) {
  MethodPass pass;
  std::size_t cells = 0;
  for (const ScenarioCell& cell : result.cells) {
    const auto it = cell.methods.find(kind);
    if (it == cell.methods.end()) continue;
    pass.restore_s += it->second.total_seconds;
    pass.avg_l1 += it->second.distances.Summarize().mean_average;
    ++cells;
  }
  if (cells > 0) {
    pass.restore_s /= static_cast<double>(cells);
    pass.avg_l1 /= static_cast<double>(cells);
  }
  return pass;
}

void RunUntraced(const Args& args, const ScenarioSpec& spec) {
  OutputCheck check(RecordedDigest(args));
  const std::size_t trials = TrialsPerPass(spec);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check_pass_zero = [&](const ScenarioRunResult& result) {
    if (check.Accept(Digest(ScenarioReportToJson(result)))) return true;
    std::cerr << "pass 0: report digest differs\n";
    failed += trials;
    return false;
  };
  // An untimed warm-up run of pass 0 takes the cold-start cost and gives
  // the digest the timed run of pass 0 must reproduce.
  attempted += trials;
  try {
    check_pass_zero(RunScenario(PassSpec(spec, args.seed, 0)));
  } catch (const std::exception& e) {
    std::cerr << "warm-up threw: " << e.what() << "\n";
    failed += trials;
  }

  std::vector<double> setup;
  std::vector<double> run_s;
  std::vector<double> peak_mb;
  std::vector<double> restore_proposed;
  std::vector<double> restore_gjoka;
  std::vector<double> l1_proposed;
  std::vector<double> l1_gjoka;
  Timer window;
  for (std::size_t p = 0;
       p < kMinPasses || window.Seconds() < static_cast<double>(args.seconds);
       ++p) {
    // The host's speed drifts over tens of seconds; a set-up before every
    // pass spreads the set-ups over the whole run, as the passes are.
    setup.push_back(TimeSetup(spec));
    attempted += trials;
    try {
      // Without a writable clear_refs the mark is never reset, and each
      // pass reads the process-wide peak instead.
      const PeakProbe probe;
      Timer timer;
      const ScenarioRunResult result =
          RunScenario(PassSpec(spec, args.seed, p));
      run_s.push_back(timer.Seconds());
      peak_mb.push_back(static_cast<double>(StatusBytes("VmHWM")) /
                        (1024.0 * 1024.0));
      if (p == 0 && !check_pass_zero(result)) continue;
      const MethodPass proposed =
          SummarizeMethod(result, MethodKind::kProposed);
      const MethodPass gjoka = SummarizeMethod(result, MethodKind::kGjoka);
      restore_proposed.push_back(proposed.restore_s);
      restore_gjoka.push_back(gjoka.restore_s);
      std::cerr << "pass " << p << ": " << run_s.back() << " s, restore "
                << proposed.restore_s << " s proposed, " << gjoka.restore_s
                << " s gjoka, L1 " << proposed.avg_l1 << " / " << gjoka.avg_l1
                << "\n";
      if (p < kMinPasses) {
        l1_proposed.push_back(proposed.avg_l1);
        l1_gjoka.push_back(gjoka.avg_l1);
      }
    } catch (const std::exception& e) {
      std::cerr << "pass " << p << " threw: " << e.what() << "\n";
      failed += trials;
    }
  }
  const double measured = window.Seconds();

  const std::string passes = std::to_string(run_s.size()) + " passes";
  const std::string samples = "mean of " + std::to_string(trials) +
                              " trials a pass, median of " + passes;
  const std::string first_passes =
      "median of the first " + std::to_string(kMinPasses) + " passes";
  const std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setup),
       "median of " + std::to_string(setup.size()) + " set-ups, one a pass"},
      {"run_s", "s", Median(run_s), "median of " + passes},
      {"restore_s.proposed", "s", Median(restore_proposed), samples},
      {"restore_s.gjoka", "s", Median(restore_gjoka), samples},
      {"peak_rss_mb", "MB", Median(peak_mb),
       "VmHWM of a pass, median of " + passes},
      {"avg_l1.proposed", "L1", Median(l1_proposed), first_passes},
      {"avg_l1.gjoka", "L1", Median(l1_gjoka), first_passes},
  };
  std::ostringstream title;
  title << "perfbench " << args.workload << " seed " << args.seed << ": "
        << passes << " in " << measured << " s, pass 0 "
        << check.Describe();
  PrintResult(title.str(), metrics, failed == 0, attempted, failed);
}

// ---------------------------------------------------------------------------
// Traced mode: per-layer replay
// ---------------------------------------------------------------------------

/// Per-layer totals over one replayed pass.
struct Layers {
  double load_s = 0.0;
  double original_s = 0.0;
  double crawl_s = 0.0;
  double queries = 0.0;
  double subgraph_s = 0.0;
  double estimate_s = 0.0;
  double targets_s = 0.0;
  double assemble_s = 0.0;
  double assemble_peak = 0.0;
  double rewire_s = 0.0;
  double rewire_attempts = 0.0;
  double rewire_accepted = 0.0;
  double rewire_peak = 0.0;
  double rewire_growth = 0.0;
  double rewire_edges = 0.0;
  double csr_convert_s = 0.0;
  double local_s = 0.0;
  double esp_s = 0.0;
  double paths_s = 0.0;
  double eigen_s = 0.0;
  double evaluate_s = 0.0;
  double evaluate_peak = 0.0;
  double trial_s = 0.0;
  std::size_t trials = 0;
  bool memory_ok = true;
};

/// Times one layer call as a span of the benchmark's own category and
/// adds its seconds to `total`.
template <typename Fn>
auto Timed(const char* span_name, double& total, Fn&& fn) {
  obs::Span span(span_name, "bench");
  Timer timer;
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    total += timer.Seconds();
  } else {
    auto result = fn();
    total += timer.Seconds();
    return result;
  }
}

/// Runs `fn` under a PeakProbe, keeping the largest growth in `peak` and
/// returning the growth of this call.
template <typename Fn>
double Probed(Layers& layers, double& peak, Fn&& fn) {
  const PeakProbe probe;
  fn();
  if (!probe.ok()) {
    layers.memory_ok = false;
    return 0.0;
  }
  const double growth = probe.Growth();
  peak = std::max(peak, growth);
  return growth;
}

/// ComputeProperties, one analyzer at a time (analysis/properties.cc).
GraphProperties SplitProperties(const CsrGraph& g,
                                const PropertyOptions& options,
                                Layers& layers) {
  GraphProperties p;
  Timed("analysis.local", layers.local_s, [&] {
    p.num_nodes = g.NumNodes();
    p.average_degree = g.AverageDegree();
    p.degree_dist = DegreeDistribution(g);
    p.neighbor_connectivity = NeighborConnectivity(g);
    const std::vector<std::int64_t> t = CountTrianglesPerNode(g);
    double total = 0.0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const std::size_t d = g.Degree(v);
      if (d >= 2) {
        total += 2.0 * static_cast<double>(t[v]) /
                 (static_cast<double>(d) * static_cast<double>(d - 1));
      }
    }
    p.clustering_global =
        g.NumNodes() == 0 ? 0.0 : total / static_cast<double>(g.NumNodes());
    p.clustering_by_degree = ExtractDegreeDependentClustering(g, t);
  });
  p.esp_dist = Timed("analysis.esp", layers.esp_s,
                     [&] { return EdgewiseSharedPartners(g); });
  const ShortestPathProperties sp =
      Timed("analysis.paths", layers.paths_s,
            [&] { return ComputeShortestPathProperties(g, options); });
  p.average_path_length = sp.average_length;
  p.path_length_dist = sp.length_dist;
  p.diameter = sp.diameter;
  p.betweenness_by_degree = sp.betweenness_by_degree;
  p.largest_eigenvalue = Timed("analysis.eigen", layers.eigen_s, [&] {
    return LargestEigenvalue(g, options.power_iterations,
                             options.power_tolerance);
  });
  return p;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameProperties(const GraphProperties& a, const GraphProperties& b) {
  return a.num_nodes == b.num_nodes &&
         SameBits(a.average_degree, b.average_degree) &&
         SameBits(a.degree_dist, b.degree_dist) &&
         SameBits(a.neighbor_connectivity, b.neighbor_connectivity) &&
         SameBits(a.clustering_global, b.clustering_global) &&
         SameBits(a.clustering_by_degree, b.clustering_by_degree) &&
         SameBits(a.esp_dist, b.esp_dist) &&
         SameBits(a.average_path_length, b.average_path_length) &&
         SameBits(a.path_length_dist, b.path_length_dist) &&
         a.diameter == b.diameter &&
         SameBits(a.betweenness_by_degree, b.betweenness_by_degree) &&
         SameBits(a.largest_eigenvalue, b.largest_eigenvalue);
}

struct Produced {
  MethodKind kind;
  Graph graph;
  std::array<double, kNumProperties> distances;
};

/// Whether the replay reproduced one method of the one-call pipeline.
bool Matches(const Produced& produced, const MethodRunResult& expected) {
  const std::vector<Edge>& edges = produced.graph.edges();
  const std::vector<Edge>& want = expected.restoration.graph.edges();
  return produced.kind == expected.kind && edges.size() == want.size() &&
         std::equal(edges.begin(), edges.end(), want.begin(),
                    [](const Edge& a, const Edge& b) {
                      return a.u == b.u && a.v == b.v;
                    }) &&
         std::memcmp(produced.distances.data(), expected.distances.data(),
                     sizeof(double) * kNumProperties) == 0;
}

/// One trial of RunExperiment's CsrGraph path for the replayable subset,
/// one layer call at a time.
class TrialReplay {
 public:
  TrialReplay(const CsrGraph& original, const GraphProperties& properties,
              const ExperimentConfig& config, Layers& layers)
      : original_(original),
        properties_(properties),
        config_(config),
        layers_(layers) {}

  std::vector<Produced> Run(std::uint64_t run_seed) {
    std::vector<Produced> out;
    Rng rng(run_seed);
    const auto budget = static_cast<std::size_t>(std::max<double>(
        1.0,
        config_.query_fraction * static_cast<double>(original_.NumNodes())));
    const auto seed_node =
        static_cast<NodeId>(rng.NextIndex(original_.NumNodes()));

    const auto crawl = [&](auto&& sampler) {
      // The oracle the runner crawls through; with the noise off, as in
      // every replayable spec, it never reads its seed.
      PerturbedOracle oracle(original_, config_.noise, /*noise_seed=*/0);
      SamplingList sample =
          Timed("sampling.crawl", layers_.crawl_s,
                [&] { return sampler(oracle); });
      layers_.queries += static_cast<double>(oracle.unique_queries());
      return sample;
    };
    const auto subgraph_method = [&](MethodKind kind,
                                     const SamplingList& sample) {
      Subgraph sub = Timed("estimation.subgraph", layers_.subgraph_s,
                           [&] { return BuildSubgraph(sample); });
      out.push_back(Evaluate(kind, std::move(sub.graph)));
    };

    if (Wants(MethodKind::kBfs)) {
      subgraph_method(MethodKind::kBfs, crawl([&](QueryOracle& oracle) {
                        return BfsSample(oracle, seed_node, budget);
                      }));
    }
    if (Wants(MethodKind::kSnowball)) {
      subgraph_method(MethodKind::kSnowball, crawl([&](QueryOracle& oracle) {
                        return SnowballSample(oracle, seed_node, budget,
                                              config_.snowball_k, rng);
                      }));
    }
    if (Wants(MethodKind::kForestFire)) {
      subgraph_method(MethodKind::kForestFire, crawl([&](QueryOracle& oracle) {
                        return ForestFireSample(oracle, seed_node, budget,
                                                config_.forest_fire_pf, rng);
                      }));
    }
    if (Wants(MethodKind::kRandomWalk) || Wants(MethodKind::kGjoka) ||
        Wants(MethodKind::kProposed)) {
      const SamplingList walk = crawl([&](QueryOracle& oracle) {
        return RandomWalkSample(oracle, seed_node, budget, rng, 0);
      });
      RestorationOptions options = config_.restoration;
      options.estimator.walk_type = WalkType::kSimple;
      if (Wants(MethodKind::kRandomWalk)) {
        subgraph_method(MethodKind::kRandomWalk, walk);
      }
      if (Wants(MethodKind::kGjoka)) {
        out.push_back(Evaluate(MethodKind::kGjoka, Gjoka(walk, options, rng)));
      }
      if (Wants(MethodKind::kProposed)) {
        out.push_back(
            Evaluate(MethodKind::kProposed, Proposed(walk, options, rng)));
      }
    }
    return out;
  }

 private:
  bool Wants(MethodKind kind) const {
    return std::find(config_.methods.begin(), config_.methods.end(), kind) !=
           config_.methods.end();
  }

  /// RestoreGjoka (restore/gjoka.cc).
  Graph Gjoka(const SamplingList& walk, const RestorationOptions& options,
              Rng& rng) {
    const LocalEstimates estimates =
        Timed("estimation.estimate", layers_.estimate_s, [&] {
          return EstimateLocalProperties(walk, options.estimator);
        });
    Timed("estimation.subgraph", layers_.subgraph_s,
          [&] { return BuildSubgraph(walk).NumQueried(); });
    TargetDegreeVectorResult targets;
    JointDegreeMatrix m_star;
    Timed("restore.targets", layers_.targets_s, [&] {
      targets = BuildTargetDegreeVectorFromEstimates(estimates);
      m_star = BuildTargetJdmFromEstimates(estimates, targets.n_star, rng);
    });
    Graph graph;
    Probed(layers_, layers_.assemble_peak, [&] {
      graph = Timed("dk.assemble", layers_.assemble_s, [&] {
        return Construct2kGraph(targets.n_star, m_star, rng);
      });
    });
    Rewire(graph, 0, estimates, options, rng);
    return graph;
  }

  /// RestoreProposed (restore/proposed.cc).
  Graph Proposed(const SamplingList& walk, const RestorationOptions& options,
                 Rng& rng) {
    const Subgraph sub = Timed("estimation.subgraph", layers_.subgraph_s,
                               [&] { return BuildSubgraph(walk); });
    const LocalEstimates estimates =
        Timed("estimation.estimate", layers_.estimate_s, [&] {
          return EstimateLocalProperties(walk, options.estimator);
        });
    TargetDegreeVectorResult targets;
    JointDegreeMatrix m_star;
    Timed("restore.targets", layers_.targets_s, [&] {
      targets = BuildTargetDegreeVector(sub, estimates, rng);
      const JointDegreeMatrix m_prime =
          SubgraphClassEdges(sub.graph, targets.subgraph_target_degrees);
      m_star = BuildTargetJdm(estimates, targets.n_star, m_prime, rng);
    });
    Graph graph;
    Probed(layers_, layers_.assemble_peak, [&] {
      graph = Timed("dk.assemble", layers_.assemble_s, [&] {
        return AssembleFromSubgraph(sub, targets, targets.n_star, m_star, rng);
      });
    });
    Rewire(graph, options.protect_subgraph ? sub.graph.NumEdges() : 0,
           estimates, options, rng);
    return graph;
  }

  void Rewire(Graph& graph, std::size_t protected_edges,
              const LocalEstimates& estimates,
              const RestorationOptions& options, Rng& rng) {
    // The replayable subset never tracks properties, so the rewiring
    // options are options.rewire as given.
    RewireStats stats;
    const double growth = Probed(layers_, layers_.rewire_peak, [&] {
      stats = Timed("restore.rewire", layers_.rewire_s, [&] {
        return RewireToClustering(graph, protected_edges,
                                  estimates.clustering, options.rewire, rng);
      });
    });
    layers_.rewire_attempts += static_cast<double>(stats.attempts);
    layers_.rewire_accepted += static_cast<double>(stats.accepted);
    layers_.rewire_growth += growth;
    layers_.rewire_edges += static_cast<double>(graph.NumEdges());
  }

  /// The runner's Evaluate: ComputeProperties of the Graph (a CsrGraph
  /// conversion, then the analyzers) and the 12 L1 distances.
  Produced Evaluate(MethodKind kind, Graph graph) {
    Produced produced{kind, std::move(graph), {}};
    Probed(layers_, layers_.evaluate_peak, [&] {
      Timed("analysis.evaluate", layers_.evaluate_s, [&] {
        const CsrGraph csr =
            Timed("graph.csr_convert", layers_.csr_convert_s,
                  [&] { return CsrGraph(produced.graph); });
        produced.distances = PropertyDistances(
            properties_,
            SplitProperties(csr, config_.property_options, layers_));
      });
    });
    return produced;
  }

  const CsrGraph& original_;
  const GraphProperties& properties_;
  const ExperimentConfig& config_;
  Layers& layers_;
};

struct Dataset {
  std::string name;
  CsrGraph graph;
  GraphProperties properties;
};

void PrintWhereTheTimeGoes(const Json& trace) {
  std::cout << "where the time goes (replay, self seconds):\n";
  for (const obs::PhaseSummary& phase : obs::SummarizeTrace(trace)) {
    if (phase.category != "bench") continue;
    std::cout << "  " << std::left << std::setw(24) << phase.name
              << std::right << std::setw(8) << phase.count << std::setw(12)
              << std::fixed << std::setprecision(3) << phase.self_ms / 1000.0
              << "\n"
              << std::defaultfloat;
  }
}

void RunTraced(const Args& args, const ScenarioSpec& workload) {
  const ScenarioSpec spec = PassSpec(workload, args.seed, 0);
  Layers layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const ExperimentConfig base_config =
      spec.ToExperimentConfig(spec.fractions.front());

  // Set-up, layer by layer, and the split analyzers checked against
  // ComputeProperties on every original graph.
  std::vector<Dataset> datasets;
  for (const ScenarioDataset& d : spec.datasets) {
    Dataset dataset;
    dataset.name = d.name;
    dataset.graph = Timed("graph.load", layers.load_s, [&] {
      return LoadDatasetCsr(DatasetByName(d.name), spec.dataset_scale);
    });
    dataset.properties = Timed("analysis.original", layers.original_s, [&] {
      return ComputeProperties(dataset.graph, base_config.property_options);
    });
    Layers unused;
    if (!SameProperties(SplitProperties(dataset.graph,
                                        base_config.property_options, unused),
                        dataset.properties)) {
      std::cerr << d.name
                << ": split analyzers differ from ComputeProperties\n";
      ++failed;
    }
    datasets.push_back(std::move(dataset));
  }

  // The one-call pipeline's outputs, per cell and trial, in RunScenario's
  // seed schedule (scenario/engine.h).
  const std::vector<CellKnobs> knobs = spec.ExpandKnobs();
  std::vector<std::vector<std::vector<MethodRunResult>>> expected;
  std::size_t cell_index = 0;
  for (const Dataset& dataset : datasets) {
    for (const CellKnobs& k : knobs) {
      const std::uint64_t cell_seed =
          spec.seed_base + static_cast<std::uint64_t>(cell_index++) *
                               static_cast<std::uint64_t>(spec.trials);
      expected.push_back(RunExperiments(dataset.graph, dataset.properties,
                                        spec.ToExperimentConfig(k), cell_seed,
                                        spec.trials, ResolveThreadCount(0)));
    }
  }

  // Untraced and traced runs of pass 0, alternating so that neither side
  // takes the warm-up; the last traced run's spans stay in the trace.
  OutputCheck check(RecordedDigest(args));
  std::vector<double> run_s[2];
  for (int i = 0; i < 2 * kOverheadPairs; ++i) {
    const int traced = i % 2;
    if (traced == 1) {
      obs::StartTracing();
    } else {
      obs::StopTracing();
    }
    attempted += TrialsPerPass(spec);
    Timer timer;
    const ScenarioRunResult result = RunScenario(spec);
    run_s[traced].push_back(timer.Seconds());
    if (!check.Accept(Digest(ScenarioReportToJson(result)))) {
      std::cerr << "pass 0: report digest differs\n";
      failed += TrialsPerPass(spec);
    }
  }
  const double untraced_s = Median(run_s[0]);
  const double traced_s = Median(run_s[1]);

  // The replay, with tracing still on.
  cell_index = 0;
  for (const Dataset& dataset : datasets) {
    for (const CellKnobs& k : knobs) {
      const ExperimentConfig config = spec.ToExperimentConfig(k);
      const std::uint64_t cell_seed =
          spec.seed_base + static_cast<std::uint64_t>(cell_index) *
                               static_cast<std::uint64_t>(spec.trials);
      TrialReplay replay(dataset.graph, dataset.properties, config, layers);
      for (std::size_t i = 0; i < spec.trials; ++i) {
        ++attempted;
        std::vector<Produced> produced;
        Timed("exp.trial", layers.trial_s,
              [&] { produced = replay.Run(cell_seed + i); });
        ++layers.trials;
        const std::vector<MethodRunResult>& want = expected[cell_index][i];
        bool same = produced.size() == want.size();
        for (std::size_t m = 0; same && m < produced.size(); ++m) {
          same = Matches(produced[m], want[m]);
        }
        if (!same) {
          std::cerr << dataset.name << " trial " << i
                    << ": replay differs from the one-call pipeline\n";
          ++failed;
        }
      }
      ++cell_index;
    }
  }
  obs::StopTracing();
  const Json trace = obs::TraceToJson();
  WriteJsonFile(trace, args.trace_out);
  PrintWhereTheTimeGoes(trace);

  const double mb = 1.0 / (1024.0 * 1024.0);
  const double threads = static_cast<double>(ResolveThreadCount(spec.threads));
  std::vector<Metric> metrics = {
      {"graph.load_s", "s", layers.load_s, ""},
      {"graph.csr_convert_s", "s", layers.csr_convert_s, ""},
      {"sampling.crawl_s", "s", layers.crawl_s, ""},
      {"sampling.queries", "count", layers.queries, ""},
      {"estimation.subgraph_s", "s", layers.subgraph_s, ""},
      {"estimation.estimate_s", "s", layers.estimate_s, ""},
      {"restore.targets_s", "s", layers.targets_s, ""},
      {"dk.assemble_s", "s", layers.assemble_s, ""},
      {"restore.rewire_s", "s", layers.rewire_s, ""},
      {"restore.rewire_attempts", "count", layers.rewire_attempts, ""},
      {"restore.rewire_accept_ratio", "ratio",
       layers.rewire_attempts > 0
           ? layers.rewire_accepted / layers.rewire_attempts
           : 0.0,
       ""},
      {"restore.rewire_attempts_per_s", "1/s",
       layers.rewire_s > 0 ? layers.rewire_attempts / layers.rewire_s : 0.0,
       ""},
      {"analysis.original_s", "s", layers.original_s, ""},
      {"analysis.local_s", "s", layers.local_s, ""},
      {"analysis.esp_s", "s", layers.esp_s, ""},
      {"analysis.paths_s", "s", layers.paths_s, ""},
      {"analysis.eigen_s", "s", layers.eigen_s, ""},
      {"analysis.evaluate_s", "s", layers.evaluate_s, ""},
      {"exp.trial_s", "s",
       layers.trials > 0
           ? layers.trial_s / static_cast<double>(layers.trials)
           : 0.0,
       "serial seconds per trial"},
      {"exp.core_util", "ratio", layers.trial_s / (threads * untraced_s),
       "serial trial seconds / (threads x run_s)"},
      {"obs.trace_overhead", "ratio", traced_s / untraced_s - 1.0,
       "traced / untraced run_s - 1"},
  };
  if (layers.memory_ok) {
    metrics.push_back({"dk.assemble_peak_mb", "MB", layers.assemble_peak * mb,
                       "largest call"});
    metrics.push_back({"restore.rewire_peak_mb", "MB",
                       layers.rewire_peak * mb, "largest call"});
    metrics.push_back({"restore.rewire_bytes_per_edge", "B/edge",
                       layers.rewire_edges > 0
                           ? layers.rewire_growth / layers.rewire_edges
                           : 0.0,
                       "all calls"});
    metrics.push_back({"analysis.evaluate_peak_mb", "MB",
                       layers.evaluate_peak * mb, "largest call"});
  } else {
    std::cerr << "/proc/self/clear_refs is not writable: per-call memory "
                 "metrics are missing\n";
  }
  std::ostringstream title;
  title << "perfbench " << args.workload << " seed " << args.seed
        << " traced: " << layers.trials << " trials replayed, run_s "
        << untraced_s << " s untraced / " << traced_s << " s traced, pass 0 "
        << check.Describe();
  PrintResult(title.str(), metrics, failed == 0, attempted, failed);
}

}  // namespace
}  // namespace sgr::perfbench

int main(int argc, char** argv) {
  using namespace sgr::perfbench;
  try {
    const Args args = ParseArgs(argc, argv);
    RejectSgrEnvironment();
    const sgr::ScenarioSpec spec = LoadWorkload(args);
    if (args.trace) {
      RunTraced(args, spec);
    } else {
      RunUntraced(args, spec);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
