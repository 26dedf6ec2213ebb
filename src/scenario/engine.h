#ifndef SGR_SCENARIO_ENGINE_H_
#define SGR_SCENARIO_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "exp/runner.h"
#include "scenario/report.h"
#include "scenario/spec.h"

namespace sgr {

/// Sentinel for RunScenario's `threads_override`: use the spec's own
/// thread count.
inline constexpr std::size_t kThreadsFromSpec =
    static_cast<std::size_t>(-1);

/// Runs one cell of a scenario matrix — `trials` Monte Carlo repetitions
/// of `config` on the `dataset` snapshot over up to `threads` workers —
/// and aggregates per-method distance and timing statistics. Trial i is
/// seeded with `seed_base + i` (the convention every bench has always
/// used), so the distance aggregates are identical for every thread count;
/// the timing fields are wall-clock measured inside the trials and inflate
/// under core contention — read them at --threads 1, or trust the ratios.
///
/// This is the single trial-matrix implementation behind both the
/// scenario engine and the benches (bench_common.h delegates here), so a
/// bench's --json output and an `sgr run` report share one schema and one
/// aggregation path. Note the benches keep their historical per-table
/// seed schedules (one fixed seed base for every dataset), while the
/// engine gives each cell a distinct base — so the two agree numerically
/// only where the seed bases happen to line up, by design.
ScenarioCell RunScenarioCell(const std::string& dataset_name,
                             const CsrGraph& dataset,
                             const GraphProperties& properties,
                             const ExperimentConfig& config,
                             std::size_t trials, std::uint64_t seed_base,
                             std::size_t threads);

/// Result of running a whole scenario: the spec as executed, the resolved
/// worker thread count, and one cell per (dataset, fraction) pair in
/// spec order.
struct ScenarioRunResult {
  ScenarioSpec spec;
  std::size_t threads = 1;
  /// Resolved rewire-engine worker count the trials ran with (only
  /// meaningful when the rewire_batch axis has a nonzero value).
  /// Volatile: recorded in the report's environment block, never in its
  /// deterministic content.
  std::size_t rewire_threads = 1;
  /// Resolved parallel-assembly worker count (only meaningful when
  /// spec.parallel_assembly). Volatile, like rewire_threads.
  std::size_t assembly_threads = 1;
  /// Resolved estimator-pass worker count. Volatile, like rewire_threads.
  std::size_t estimator_threads = 1;
  /// Where each dataset actually came from (file vs generator), in spec
  /// order. Echoed into the report's environment block — volatile, since
  /// the same spec legitimately runs on real data on one machine and the
  /// synthetic stand-in on another.
  std::vector<DatasetProvenance> datasets;
  std::vector<ScenarioCell> cells;
};

/// Expands `spec` into its {dataset x fraction x walk x crawler x
/// estimator x rc x protect x rewire_batch x frontier_walkers} matrix
/// (ScenarioSpec::ExpandKnobs order) and
/// executes every cell through RunExperiments over a shared immutable
/// CsrGraph snapshot per dataset. Registry datasets load through
/// LoadDataset (honoring $SGR_DATASET_DIR; `spec.dataset_scale` overrides
/// $SGR_DATASET_SCALE when nonzero); generator datasets are built from
/// their GeneratorSpec, so a spec can be fully hermetic. Properties of
/// each original dataset are computed once and shared by all of its
/// knob coordinates. Throws ScenarioError (via ScenarioSpec::Validate)
/// before touching any dataset if the spec is semantically invalid —
/// including specs built programmatically that never saw FromJson.
///
/// Seeding contract: cell c (0-based, datasets-major / knobs-minor in
/// ExpandKnobs order) runs trials with run seeds
///   spec.seed_base + c * spec.trials + i,   i in [0, trials),
/// evaluated in uint64 arithmetic. All three terms deliberately wrap
/// modulo 2^64: the schedule is a pure function of (seed_base, c, i) on
/// every platform, reports are reproducible even for seed_base near
/// UINT64_MAX, and two trials only ever collide if the matrix spans more
/// than 2^64 total trials. Wrap-around is therefore part of the contract,
/// not an overflow bug — locked by a boundary test.
///
/// `threads_override` replaces spec.threads when not kThreadsFromSpec
/// (the CLI's --threads / $SGR_THREADS plumbing); 0 means hardware
/// concurrency either way. `rewire_threads_override`,
/// `assembly_threads_override`, and `estimator_threads_override` do the
/// same for the spec's intra-trial worker counts (the CLI's
/// --rewire-threads / --assembly-threads / --estimator-threads plumbing
/// and their SGR_* environment twins) — like the trial thread count they
/// are execution knobs that never change the report's deterministic
/// content, so overriding them leaves the spec echo untouched.
/// `progress`, when non-null, receives one line per completed cell.
ScenarioRunResult RunScenario(
    const ScenarioSpec& spec,
    std::size_t threads_override = kThreadsFromSpec,
    std::ostream* progress = nullptr,
    std::size_t rewire_threads_override = kThreadsFromSpec,
    std::size_t assembly_threads_override = kThreadsFromSpec,
    std::size_t estimator_threads_override = kThreadsFromSpec);

/// Serializes a scenario run as the standard report document
/// (scenario/report.h): the spec echoed under "config", the environment,
/// and one cell object per matrix cell. StripVolatile of this document is
/// byte-identical across thread counts.
Json ScenarioReportToJson(const ScenarioRunResult& result);

}  // namespace sgr

#endif  // SGR_SCENARIO_ENGINE_H_
