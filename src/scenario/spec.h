#ifndef SGR_SCENARIO_SPEC_H_
#define SGR_SCENARIO_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "restore/method.h"
#include "util/json.h"

namespace sgr {

/// Error thrown when a scenario document fails validation. Messages name
/// the offending key so a typo in a hand-written scenario.json is
/// diagnosable from the CLI error alone.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what)
      : std::runtime_error("scenario: " + what) {}
};

/// Parameters of an ad-hoc synthetic dataset (the alternative to naming a
/// registry dataset from exp/datasets.h). Mirrors the `sgr generate`
/// subcommand's models.
struct GeneratorSpec {
  std::string model = "powerlaw";  ///< powerlaw | ba | er | community | social
  std::size_t nodes = 1000;
  std::size_t edges_per_node = 4;  ///< powerlaw / ba / community / social
  double triad_p = 0.4;            ///< powerlaw / community / social
  double fringe_fraction = 0.4;    ///< social
  std::size_t edges = 0;           ///< er (0 = 4 * nodes)
  std::size_t communities = 4;     ///< community
  std::size_t bridges = 0;         ///< community (0 = nodes / 50 + 1)
  std::uint64_t seed = 1;
};

/// Materializes a GeneratorSpec: builds the model's graph (applying the
/// 0-means-default rules for `edges` and `bridges`) and preprocesses it
/// with PreprocessDataset (simplify + largest connected component), as
/// LoadDatasetCsr does for registry datasets. The single model-dispatch
/// implementation shared by the scenario engine and `sgr generate`;
/// throws ScenarioError on an unknown model.
CsrGraph BuildGeneratorGraph(const GeneratorSpec& gen);

/// One dataset of a scenario: either a registry name ("anybeat", ...,
/// "youtube"; see exp/datasets.h) or a labelled generator.
struct ScenarioDataset {
  std::string name;
  std::optional<GeneratorSpec> generator;
};

/// One estimator ablation variant of a scenario: the knobs of
/// EstimatorOptions that are spec-expressible (the walk-type normalizer is
/// derived from the `walk` axis by the runner and is deliberately not a
/// free knob here — the two can never disagree).
struct EstimatorSpec {
  JointEstimatorMode joint_mode = JointEstimatorMode::kHybrid;
  /// Collision-pair lag threshold as a fraction of the walk length
  /// (paper: 0.025). Must be finite and in (0, 1).
  double collision_fraction = 0.025;

  friend bool operator==(const EstimatorSpec& a, const EstimatorSpec& b) {
    return a.joint_mode == b.joint_mode &&
           a.collision_fraction == b.collision_fraction;
  }
};

/// Report key of a cell's query fraction (the spec key is "fractions").
/// Every report since the first schema carries it, so `sgr diff` requires
/// it where the later knobs fall back to defaults.
inline constexpr char kQueryFractionKey[] = "query_fraction";

/// Coordinates of one cell of the expanded scenario matrix — everything
/// that varies between cells besides the dataset, one value per axis.
/// RunScenario enumerates these fractions-major through noise-minor (see
/// ExpandKnobs) and each cell's report echoes them (CellKnobsToJson), so
/// `sgr diff` can pair cells across reports by (dataset, knobs).
struct CellKnobs {
  double fraction = 0.1;
  WalkKind walk = WalkKind::kSimple;
  CrawlerKind crawler = CrawlerKind::kRw;
  EstimatorSpec estimator;
  double rc = 500.0;
  bool protect_subgraph = true;
  /// Retired rewiring-engine selector: always 0 (see
  /// ScenarioSpec::rewire_batches), echoed because recorded reports hold
  /// it.
  std::size_t rewire_batch = 0;
  /// Walker count of the frontier crawler (ignored by the others, but
  /// echoed regardless so cells pair canonically).
  std::size_t frontier_walkers = 10;
  /// Crawl-time fault injection (default: the cooperative oracle).
  CrawlNoise noise;
};

/// Declarative description of one crawl -> restore -> evaluate matrix:
/// {datasets x fractions x walks x crawlers x estimators x rcs x
/// protects x rewire_batches x frontier_walkers x noises} x methods x
/// trials. Defaults match a default-constructed ExperimentConfig (RC =
/// 500, 10% queried, all six methods, simple random walk, exact path
/// evaluation), so an empty scenario runs the paper's Table III protocol
/// on whatever datasets it names; every axis defaults to a single
/// paper-faithful value, so older scenario documents expand to exactly the
/// cells they always did.
///
/// Each document key is declared once, as a row of the knob table in
/// spec.cc: its JSON key, type, default, range and, for an axis, its
/// expansion rank and ExperimentConfig field. FromJson, ToJson, Validate,
/// ExpandKnobs, ToExperimentConfig, the report's cell echo, `sgr diff`'s
/// pairing and the cell labels all iterate that table.
struct ScenarioSpec {
  std::string name = "custom";
  std::vector<ScenarioDataset> datasets;
  std::vector<double> fractions = {0.1};
  std::vector<MethodKind> methods = {
      MethodKind::kBfs,        MethodKind::kSnowball,
      MethodKind::kForestFire, MethodKind::kRandomWalk,
      MethodKind::kGjoka,      MethodKind::kProposed};
  std::size_t trials = 3;
  /// Scenario pool workers, also PropertyOptions::threads of every
  /// evaluation on it; 0 = hardware concurrency.
  std::size_t threads = 1;
  std::uint64_t seed_base = 0x5EED;
  /// Walk-discipline axis ("walk"; simple | non-backtracking |
  /// metropolis-hastings). Non-simple walks require the rw crawler.
  std::vector<WalkKind> walks = {WalkKind::kSimple};
  /// Crawler axis ("crawler"; rw | frontier | mhrw | bfs | snowball | ff).
  /// Non-walk crawlers require a method list without gjoka/proposed.
  /// frontier/mhrw with the generative methods are deliberate ablation
  /// combinations (their stationary laws violate the estimators'
  /// simple-walk assumptions — running them measures that bias).
  std::vector<CrawlerKind> crawlers = {CrawlerKind::kRw};
  /// Estimator-ablation axis ("estimator": objects with "joint_mode" and
  /// "collision_fraction").
  std::vector<EstimatorSpec> estimators = {{}};
  /// Rewiring-coefficient axis ("rc"; paper: 500).
  std::vector<double> rcs = {500.0};
  /// Rewiring candidate-set axis ("protect_subgraph"): true rewires over
  /// E~ \ E' (the paper's choice), false over all of E~ (Gjoka et al.'s
  /// choice inside the proposed pipeline).
  std::vector<bool> protects = {true};
  /// Walker-count axis of the frontier crawler ("frontier_walkers").
  /// Sweeping more than one value requires the crawler axis to be exactly
  /// [frontier]: every other crawler ignores the knob, so its cells would
  /// be duplicated once per walker value.
  std::vector<std::size_t> frontier_walkers = {10};
  /// Retired axis ("rewire_batch"), kept only because recorded reports
  /// echo it: it accepts nothing but 0 and reaches no ExperimentConfig
  /// field. Algorithm 6 has one engine, RewireToClustering.
  std::vector<std::size_t> rewire_batches = {0};
  /// Retired intra-trial worker count, kept only because recorded reports
  /// echo it: the key accepts nothing but 1 and reaches no
  /// ExperimentConfig field. The same holds for assembly_threads and
  /// estimator_threads below.
  std::size_t rewire_threads = 1;
  /// Retired, echo-only like rewire_batches: accepts nothing but false.
  /// Algorithm 5 has one engine, ConstructPreservingTargets.
  bool parallel_assembly = false;
  /// Retired, echo-only (see rewire_threads).
  std::size_t assembly_threads = 1;
  /// Retired, echo-only (see rewire_threads).
  std::size_t estimator_threads = 1;
  std::size_t path_sources = 0;   ///< 0 = exact all-pairs evaluation
  std::size_t snowball_k = 50;
  double forest_fire_pf = 0.7;
  bool simplify_output = false;
  double dataset_scale = 0.0;     ///< 0 = honor $SGR_DATASET_SCALE / 1.0
  /// Convergence tracking during the rewiring phase: when true,
  /// every generative method's rewiring run records a convergence curve
  /// that the report emits as a deterministic "convergence" block.
  /// Observation only — cells are byte-identical with tracking on or off.
  bool track_properties = false;
  /// Adaptive rewiring stop epsilon (requires `track_properties`): halt
  /// rewiring once the tracked L1 clustering distance is within this
  /// value. 0 disables the stop.
  double stop_epsilon = 0.0;
  /// Adversarial-oracle axis ("noise": objects with "failure",
  /// "hidden_edges", "churn", "api_budget"; see CrawlNoise). The
  /// probabilities are capped at 0.9 at the spec level — a cell where
  /// (almost) every query fails measures nothing. Default: one all-off
  /// entry, the cooperative oracle, which the echo omits so older
  /// documents and reports stay byte-identical.
  std::vector<CrawlNoise> noises = {{}};

  /// Parses and validates a scenario document. Every axis accepts one
  /// value or an array (`datasets`, `fractions` and `methods` only an
  /// array). Unknown keys, wrong types, out-of-range values, unknown
  /// dataset/method names, and empty lists all throw ScenarioError.
  static ScenarioSpec FromJson(const Json& json);

  /// Serializes the spec back to its document form; FromJson(ToJson(s))
  /// round-trips to an equal document (axes with a single value serialize
  /// as scalars, larger axes as arrays). Embedded verbatim in every
  /// report so a result file names the matrix that produced it.
  Json ToJson() const;

  /// Full semantic validation of the spec *values*, independent of how
  /// they were produced: non-empty axes, finite and in-range numbers for
  /// every numeric knob (the JSON layer admits Infinity/NaN literals by
  /// design, and a programmatically built spec never passes through
  /// FromJson at all), no duplicate axis entries, and the cross-axis rules
  /// (non-walk crawlers forbid generative methods; non-simple walks
  /// require the rw crawler). FromJson calls this after parsing, and
  /// RunScenario calls it before executing, so an invalid spec can reach
  /// neither ExperimentConfig nor the engine. Throws ScenarioError.
  void Validate() const;

  /// The experiment configuration of one cell of the matrix: this spec's
  /// method list and options at the given axis coordinates. Per-trial
  /// property evaluation is pinned to one thread, so reports are
  /// byte-identical for every engine thread count.
  ExperimentConfig ToExperimentConfig(const CellKnobs& knobs) const;

  /// Convenience overload: the given query fraction with every other axis
  /// at its first value (exactly what single-axis callers mean).
  ExperimentConfig ToExperimentConfig(double fraction) const;

  /// Enumerates the knob coordinates of the non-dataset axes in cell
  /// order: fractions-major, then walks, crawlers, estimators, rcs,
  /// protects, rewire_batches, frontier_walkers, noises (minor). The
  /// newest axes sit innermost so single-valued specs expand to exactly
  /// the cell list — and therefore the seed schedule — they always did.
  /// RunScenario visits datasets-major over this list.
  std::vector<CellKnobs> ExpandKnobs() const;
};

/// Every top-level key of a scenario document, in echo order.
std::vector<std::string> ScenarioSpecKeys();

/// Token maps of the enum knobs; FromToken throws ScenarioError on an
/// unknown token, and ToToken inverts it.
///   MethodKind          bfs | snowball | ff | rw | gjoka | proposed
///   WalkKind            simple | non-backtracking | metropolis-hastings
///   CrawlerKind         rw | frontier | mhrw | bfs | snowball | ff
///   JointEstimatorMode  hybrid | ie | te
template <typename E>
E FromToken(const std::string& token);
template <typename E>
std::string ToToken(E value);

/// The cell echo of `knobs`, in expansion order: query_fraction, walk,
/// crawler, estimator, rc, protect_subgraph, rewire_batch,
/// frontier_walkers, noise. The noise object is left out at its default
/// (the cooperative oracle) unless `complete`, so noise-off reports keep
/// their historical bytes.
Json CellKnobsToJson(const CellKnobs& knobs, bool complete = false);

/// The cell knobs `config` runs with — the per-cell part of
/// ScenarioSpec::ToExperimentConfig, inverted. A report cell echoes these.
CellKnobs CellKnobsOf(const ExperimentConfig& config);

/// Pairing defaults for the cells of one report: the complete default
/// cell echo, except that a knob the report's config echo holds as a
/// single value takes that value. Reports from before the axis schema
/// carry rc, rewire_batch and frontier_walkers there and nowhere else.
Json CellKnobDefaults(const Json* config_echo = nullptr);

/// The knob coordinates of a report cell, flattened in expansion order
/// (object knobs member by member: "joint_mode", "collision_fraction",
/// "failure", ...). A knob or member the cell lacks, or holds with the
/// wrong type, takes its value from `defaults` (a CellKnobDefaults
/// document). `sgr diff` pairs cells by (dataset, coordinates).
Json CellCoordinates(const Json& cell, const Json& defaults);

/// The one cell label ("anybeat @ 10% rc=250 failure=0.2"): dataset and
/// query fraction, then every coordinate that differs from `defaults`.
/// Used by `sgr diff` findings, the engine's progress lines and the rows
/// of `sgr table`.
std::string CellLabel(const std::string& dataset, const Json& cell,
                      const Json& defaults);
std::string CellLabel(const std::string& dataset, const CellKnobs& knobs);

/// Built-in named scenarios, runnable as `sgr run <name>`:
///   tables-smoke     2 small dataset stand-ins, CI-sized (seconds)
///   table2           per-property distances, Slashdot/Gowalla/Livemocha
///   table3           avg +- SD on the six standard datasets
///   table4-time      generation-time protocol (RC = 500)
///   table5-youtube   the largest stand-in at 1% queried
///   fig3-sweep       query-fraction sweep, 2%-10%
///   ablation-walk    simple vs non-backtracking walk (Section II)
///   ablation-rc      rewiring-budget sweep RC in {0..500} (Section IV-E)
///   ablation-jdm     hybrid vs IE-only vs TE-only estimator (Sec. III-E)
///   ablation-rewire  protected vs all-edges rewiring set (Section IV-E)
///   ablation-frontier  frontier walker-count sweep (frontier_walkers)
///   ablation-noise   adversarial-oracle sweep: cooperative vs private
///                    accounts vs hidden edges vs churn (noise axis)
std::vector<std::string> BuiltinScenarioNames();
bool IsBuiltinScenario(const std::string& name);
ScenarioSpec BuiltinScenario(const std::string& name);

/// Description of a built-in. The first line is the `sgr scenarios list`
/// summary; the lines after it give the paper's reference values and the
/// expected shape, which `sgr table` prints above a report's numbers.
std::string BuiltinScenarioDescription(const std::string& name);

}  // namespace sgr

#endif  // SGR_SCENARIO_SPEC_H_
