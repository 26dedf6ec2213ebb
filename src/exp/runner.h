#ifndef SGR_EXP_RUNNER_H_
#define SGR_EXP_RUNNER_H_

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "restore/method.h"
#include "sampling/perturbed_oracle.h"
#include "util/parse.h"
#include "util/rng.h"

namespace sgr {

/// Walk discipline of the shared sample consumed by the RW / Gjoka /
/// Proposed trio (only meaningful when `ExperimentConfig::crawler` is
/// kRw). The estimator's clustering normalizer is derived from this value
/// inside the runner — kNonBacktracking selects
/// WalkType::kNonBacktracking, everything else the simple-walk law.
enum class WalkKind {
  kSimple,              ///< simple random walk (the paper's setting)
  kNonBacktracking,     ///< Lee et al.'s NBRW (Section II extension)
  kMetropolisHastings,  ///< MH walk; uniform stationary law, so the
                        ///  re-weighted estimators are deliberately
                        ///  mismatched — an ablation axis, not a
                        ///  recommended configuration
};

/// Crawler producing the shared sample of the walk-based trio (the
/// subgraph-RW method plus the two generative methods). The non-walk
/// crawlers (kBfs / kSnowball / kFf) yield samples without the Markov
/// property, so they are only valid when the method list contains no
/// generative method — ScenarioSpec::Validate enforces this, and
/// RunExperiment throws std::invalid_argument if bypassed.
enum class CrawlerKind {
  kRw,        ///< single walker; honors ExperimentConfig::walk
  kFrontier,  ///< Ribeiro & Towsley's multi-walker frontier sampling.
              ///  Feeding it to the generative methods is a deliberate
              ///  ablation combination, not a recommended configuration:
              ///  the clustering estimator's interior term mixes
              ///  independent walkers (see sampling/frontier.h), so the
              ///  rewiring target it produces quantifies exactly that
              ///  bias
  kMhrw,      ///< Metropolis-Hastings walk (≡ kRw + kMetropolisHastings)
  kBfs,       ///< breadth-first crawl (subgraph methods only)
  kSnowball,  ///< snowball crawl (subgraph methods only)
  kFf,        ///< forest-fire crawl (subgraph methods only)
};

/// Configuration of one experimental run matrix (Section V-D/E).
struct ExperimentConfig {
  /// Fraction of nodes to query (the paper sweeps 1%-10%, uses 10% for the
  /// tables and 1% for YouTube).
  double query_fraction = 0.1;

  /// Walk discipline of the shared sample (see WalkKind). Only consulted
  /// when `crawler` is kRw; the runner also derives the clustering
  /// estimator's normalizer from it, overriding
  /// `restoration.estimator.walk_type`.
  WalkKind walk = WalkKind::kSimple;

  /// Crawler of the shared sample (see CrawlerKind).
  CrawlerKind crawler = CrawlerKind::kRw;

  /// Number of coupled walkers when `crawler` is kFrontier.
  std::size_t frontier_walkers = 10;

  /// Methods to run. Default: all six, in the paper's column order.
  std::vector<MethodKind> methods = {
      MethodKind::kBfs,      MethodKind::kSnowball,
      MethodKind::kForestFire, MethodKind::kRandomWalk,
      MethodKind::kGjoka,    MethodKind::kProposed};

  /// Snowball neighbor cap (paper: k = 50).
  std::size_t snowball_k = 50;

  /// Forest-fire forward probability (paper: pf = 0.7).
  double forest_fire_pf = 0.7;

  /// Crawl-time fault injection (see CrawlNoise). Default-off reproduces
  /// the cooperative oracle byte for byte; when active, every crawl runs
  /// through a PerturbedOracle whose seed is derived from the run seed, so
  /// a given (config, seed) pair sees identical faults at any thread
  /// count. When the failure knob is on, the runner redraws the seed node
  /// (extra RNG draws happen only on this path) so a run is not voided by
  /// starting on a suspended account, and walk crawlers get a
  /// deterministic step cap so hidden edges cannot trap a walker forever.
  CrawlNoise noise;

  /// Options forwarded to the generative methods (RC = 500 by default).
  RestorationOptions restoration;

  /// Options for the property analyzers applied to original and generated
  /// graphs alike.
  PropertyOptions property_options;
};

/// Result of applying one method in one run.
struct MethodRunResult {
  MethodKind kind = MethodKind::kProposed;
  RestorationResult restoration;
  std::array<double, kNumProperties> distances{};
  double average_distance = 0.0;
  double sd_distance = 0.0;
  /// Length of the sampling list the method consumed: walk steps r for the
  /// walk-based trio (the same value for all three, they share one
  /// sample), queried-node count for BFS / snowball / forest fire. A
  /// deterministic function of (config, seed) — reports emit it outside
  /// the "timings" blocks (the walk ablation's query-efficiency metric).
  double sample_steps = 0.0;
  /// Distinct nodes the crawl queried from the oracle — the method's true
  /// query cost, ≤ the node budget by the QueryOracle contract and ≤
  /// sample_steps for revisiting walks. Like sample_steps it is a
  /// deterministic function of (config, seed), so reports emit it outside
  /// the volatile blocks.
  std::size_t oracle_queries = 0;
};

/// Executes one run: draws a uniformly random seed node, starts BFS,
/// snowball, FF, and RW from that same seed (Section V-D), applies subgraph
/// sampling to each crawl, and applies Gjoka et al.'s method and the
/// proposed method to the *same* random walk for a fair comparison. Then
/// evaluates the 12-property L1 distances against `original_properties`.
///
/// `run_seed` drives all randomness of the run (crawler RNG + generation
/// RNG), so runs are reproducible. The CsrGraph overload runs against an
/// immutable snapshot of the original graph, safe to share across
/// concurrent trials. Note the snapshot stores neighbor lists sorted, so
/// for the same seed a walk's index-based neighbor picks can differ from
/// the Graph overload's trajectory — an equally distributed sample, just
/// a different draw; each overload is individually deterministic.
std::vector<MethodRunResult> RunExperiment(
    const Graph& original, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t run_seed);
std::vector<MethodRunResult> RunExperiment(
    const CsrGraph& original, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t run_seed);

/// Executes `num_trials` independent runs concurrently on up to `threads`
/// workers (0 = hardware concurrency; 1 = inline, no threading overhead).
///
/// The original graph is snapshotted into one immutable CsrGraph shared
/// read-only by every worker; trial i uses run_seed = seed_base + i — the
/// same seed derivation RunDataset (bench_common.h) has always used — so
/// the result set is identical for every thread count, and identical to
/// calling the *CsrGraph overload* of RunExperiment sequentially with
/// seed_base + i. (The Graph overload draws a different walk for the same
/// seed — see RunExperiment above.) Returned trials are indexed by trial
/// number, not completion order.
std::vector<std::vector<MethodRunResult>> RunExperiments(
    const Graph& original, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t seed_base,
    std::size_t num_trials, std::size_t threads = 1);

/// Same, against a caller-provided snapshot (possibly compressed): the
/// scenario engine materializes datasets as CsrGraph directly — no
/// intermediate Graph at paper scale — and the Graph overload above
/// produces byte-identical trials by delegating here after snapshotting.
std::vector<std::vector<MethodRunResult>> RunExperiments(
    const CsrGraph& snapshot, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t seed_base,
    std::size_t num_trials, std::size_t threads = 1);

/// The text of environment variable `name`, or nullopt when it is unset or
/// empty. Together with exp/datasets.cc, the only place the library reads
/// the environment.
std::optional<std::string> EnvText(const char* name);

/// Environment variable `name` parsed strictly by ParseInput (util/
/// parse.h): `fallback` when unset or empty, an InputError naming the
/// variable when malformed or outside [min, max]. Every SGR_* number and
/// switch is read through here.
template <typename T>
T EnvInput(const char* name, T fallback,
           T min = std::numeric_limits<T>::lowest(),
           T max = std::numeric_limits<T>::max()) {
  const std::optional<std::string> text = EnvText(name);
  return text ? ParseInput<T>(*text, name, min, max) : fallback;
}

}  // namespace sgr

#endif  // SGR_EXP_RUNNER_H_
