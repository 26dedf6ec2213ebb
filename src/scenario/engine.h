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

/// Result of running a whole scenario: the spec as executed, the resolved
/// worker thread count, and one cell per (dataset, fraction) pair in
/// spec order.
struct ScenarioRunResult {
  ScenarioSpec spec;
  std::size_t threads = 1;
  /// Where each dataset actually came from (file vs generator), in spec
  /// order. Echoed into the report's environment block — volatile, since
  /// the same spec legitimately runs on real data on one machine and the
  /// synthetic stand-in on another.
  std::vector<DatasetProvenance> datasets;
  std::vector<ScenarioCell> cells;
};

/// Expands `spec` into its {dataset x fraction x walk x crawler x
/// estimator x rc x protect x rewire_batch x frontier_walkers x noise}
/// matrix (ScenarioSpec::ExpandKnobs order) and runs it on one pool of
/// `threads` workers, in two phases:
///   * set-up — one task per dataset: registry datasets load through
///     LoadDatasetCsr (honoring $SGR_DATASET_DIR; `spec.dataset_scale`
///     overrides $SGR_DATASET_SCALE when nonzero), generator datasets are
///     built from their GeneratorSpec (so a spec can be fully hermetic),
///     and the properties of each original are computed once for all of
///     its knob coordinates. Every dataset then stays resident until the
///     last trial has run, so peak memory holds all of a scenario's
///     datasets at once.
///   * trials — every (cell, trial) of the matrix as one task list,
///     claimed largest dataset first (NumEdges, then cell, then trial).
///     Each trial writes its own slot, and the cells are folded in cell
///     order, so the claim order changes only timing. A trial runs
///     single-threaded: this pool is the only parallelism of a scenario.
///     It drops each method's generated graph as soon as it is evaluated
///     (RunExperimentWithoutGraphs).
/// With metrics on, each trial records into its own metrics sink
/// (obs/metrics.h), and a cell's metrics block sums its trials' counters
/// and takes the maximum of their gauges. Throws ScenarioError (via
/// ScenarioSpec::Validate) before touching any dataset if the spec is
/// semantically invalid — including specs built programmatically that
/// never saw FromJson. An exception of a set-up or trial task is rethrown
/// here once the phase's other tasks have run.
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
/// concurrency either way. `progress`, when non-null, receives one line per cell, in cell order:
/// a cell's line is written once it and every earlier cell have finished.
ScenarioRunResult RunScenario(
    const ScenarioSpec& spec,
    std::size_t threads_override = kThreadsFromSpec,
    std::ostream* progress = nullptr);

/// Serializes a scenario run as the standard report document
/// (scenario/report.h): the spec echoed under "config", the environment,
/// and one cell object per matrix cell. StripVolatile of this document is
/// byte-identical across thread counts.
Json ScenarioReportToJson(const ScenarioRunResult& result);

}  // namespace sgr

#endif  // SGR_SCENARIO_ENGINE_H_
