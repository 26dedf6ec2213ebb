#ifndef SGR_SCENARIO_REPORT_H_
#define SGR_SCENARIO_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/summary.h"
#include "estimation/estimators.h"
#include "exp/datasets.h"
#include "exp/runner.h"
#include "restore/method.h"
#include "scenario/spec.h"
#include "util/json.h"

namespace sgr {

/// Mean rewiring-phase statistics of one cell's trials (attempt /
/// acceptance counters and the objective trajectory). All values are
/// deterministic functions of (spec, seed) — they are emitted under the
/// report's "rewire" keys, NOT under "timings", so they are part of the
/// determinism contract StripVolatile preserves.
struct RewireAggregate {
  double attempts = 0.0;
  double accepted = 0.0;
  /// Retired round counters: always 0, kept because recorded reports hold
  /// these four keys.
  double rounds = 0.0;
  double evaluated = 0.0;
  double conflicts = 0.0;
  double reevaluated = 0.0;
  double initial_distance = 0.0;
  double final_distance = 0.0;
};

/// The RewireAggregate members in report order, with their JSON keys.
inline constexpr std::pair<const char*, double RewireAggregate::*>
    kRewireFields[] = {{"attempts", &RewireAggregate::attempts},
                       {"accepted", &RewireAggregate::accepted},
                       {"rounds", &RewireAggregate::rounds},
                       {"evaluated", &RewireAggregate::evaluated},
                       {"conflicts", &RewireAggregate::conflicts},
                       {"reevaluated", &RewireAggregate::reevaluated},
                       {"initial_distance", &RewireAggregate::initial_distance},
                       {"final_distance", &RewireAggregate::final_distance}};

/// One point of the mean convergence curve recorded by the rewiring loop
/// (RewireStats::curve averaged across a cell's trials).
/// Deterministic content like the rewire counters: it survives
/// StripVolatile and `sgr diff` compares it point by point.
struct ConvergencePoint {
  double attempts = 0.0;           ///< mean attempts consumed at sample
  double objective = 0.0;          ///< mean tracked L1 clustering distance
  double clustering_global = 0.0;  ///< mean tracked global clustering
  double components = 0.0;         ///< mean connected-component count
  double lcc = 0.0;                ///< mean largest-component size
};

/// The ConvergencePoint members in report order, with their JSON keys.
inline constexpr std::pair<const char*, double ConvergencePoint::*>
    kConvergenceFields[] = {
        {"attempts", &ConvergencePoint::attempts},
        {"objective", &ConvergencePoint::objective},
        {"clustering_global", &ConvergencePoint::clustering_global},
        {"components", &ConvergencePoint::components},
        {"lcc", &ConvergencePoint::lcc}};

/// Aggregate of one (dataset, fraction, method) cell across trials:
/// distance statistics plus mean generation timings.
struct MethodAggregate {
  DistanceAccumulator distances;
  double total_seconds = 0.0;     ///< mean restoration seconds per trial
  double rewiring_seconds = 0.0;  ///< mean rewiring seconds per trial
  double sample_steps = 0.0;      ///< mean sampling-list length per trial
                                  ///  (deterministic: emitted outside
                                  ///  "timings")
  double oracle_queries = 0.0;    ///< mean distinct queried nodes per
                                  ///  trial — the crawl's true query cost
                                  ///  (deterministic, like sample_steps)
  RewireAggregate rewire;         ///< mean rewiring stats per trial
  std::vector<ConvergencePoint> convergence;  ///< mean tracker curve per
                                              ///  trial (empty when
                                              ///  tracking is off)
  double stopped_early = 0.0;     ///< fraction of trials that hit the
                                  ///  adaptive stop epsilon
};

/// One cell of a scenario matrix: a dataset at one coordinate of the
/// knob axes, with the per-method aggregates over the cell's trials.
/// `methods` is keyed by MethodKind, so iteration (and the JSON emission)
/// follows the paper's column order. The knobs are echoed in the cell
/// JSON (CellKnobsToJson) — `sgr diff` pairs cells across reports by
/// (dataset, knobs).
struct ScenarioCell {
  std::string dataset;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  CellKnobs knobs;
  std::uint64_t seed_base = 0;
  std::size_t trials = 0;
  /// Sum of the cell's trial seconds: the cell's serial cost. Its trials
  /// overlap with other cells' on the engine's pool, so this is not the
  /// time from the cell's first trial to its last.
  double wall_seconds = 0.0;
  std::map<MethodKind, MethodAggregate> methods;
  /// Counters (summed) and high-water gauges (maximum) of the metrics
  /// sinks of this cell's trials, plus the process's peak RSS when the
  /// cell was folded (empty when metrics are off). The counters of the
  /// deterministic pipeline (oracle.queries, rewire.*, estimate.chunks)
  /// are the same at every thread count; peak RSS depends on scheduling,
  /// so the block is volatile: it is emitted under the cell's "metrics"
  /// key and removed by StripVolatile.
  std::map<std::string, double> metrics;
};

/// Execution environment recorded in every report. Everything here is
/// volatile across machines and thread counts, which is why the whole
/// block lives under the report's "environment" key and is removed by
/// StripVolatile together with the "timings" objects.
struct RunEnvironment {
  std::size_t threads = 1;               ///< resolved worker thread count
  std::size_t hardware_concurrency = 0;
  std::string compiler;                  ///< __VERSION__
  std::string build;                     ///< "Release" / "Debug" (NDEBUG)
  /// Data-source record of every dataset the run materialized (file vs
  /// generator, resolved path, content hash) — see DatasetProvenance.
  /// Lives in the environment block because the source can legitimately
  /// differ between machines ($SGR_DATASET_DIR) without changing the
  /// deterministic report content; an empty vector emits nothing, so
  /// reports from callers that never load datasets keep their layout.
  std::vector<DatasetProvenance> datasets;
};

/// Captures the current process environment; `threads` is the resolved
/// worker count the caller is about to run with.
RunEnvironment CaptureEnvironment(std::size_t threads);

Json EnvironmentToJson(const RunEnvironment& environment);

/// Emits one cell:
///   {"dataset": ..., "nodes": ..., "edges": ..., "query_fraction": ...,
///    "walk": "simple", "crawler": "rw",
///    "estimator": {"joint_mode": "hybrid", "collision_fraction": ...},
///    "rc": ..., "protect_subgraph": ...,
///    "rewire_batch": ..., "frontier_walkers": ...,
///    "noise": {"failure": ..., "hidden_edges": ..., "churn": ...,
///              "api_budget": ...},  // only when the cell ran with noise
///    "seed_base": ..., "trials": ...,
///    "methods": [{"method": "Proposed", "sample_steps": ...,
///                 "oracle_queries": ...,
///                 "distances": {"per_property": {"n": ..., ...12...},
///                               "average": ..., "sd": ...},
///                 "rewire": {"attempts": ..., "accepted": ...,
///                            "rounds": ..., "evaluated": ...,
///                            "conflicts": ..., "reevaluated": ...,
///                            "initial_distance": ...,
///                            "final_distance": ...},
///                 "timings": {"restore_seconds": ...,
///                             "rewiring_seconds": ...}}, ...],
///    "metrics": {...},  // only when the cell captured any
///    "timings": {"wall_seconds": ...}}
/// All timing data sits under "timings" keys so StripVolatile can remove
/// it mechanically, and the "metrics" block is likewise volatile; the
/// "rewire" block is deterministic content and survives the strip (the
/// subgraph-sampling methods report all zeros).
Json ScenarioCellToJson(const ScenarioCell& cell);

/// Assembles the top-level report document `sgr run` writes:
///   {"schema": "sgr-report/1", "tool": ..., "config": <echo>,
///    "environment": {...}, "cells": [...]}
Json MakeReport(const std::string& tool, Json config_echo, Json cells,
                const RunEnvironment& environment);

/// Returns a copy of `document` with the volatile content removed: the
/// top-level "environment" object and every "timings" and "metrics"
/// member anywhere in the tree. What remains is a pure function of
/// (spec, seed), so two runs of the same scenario — at any thread count,
/// with observability on or off — dump to identical bytes. This is the
/// engine's determinism contract, and what the tests diff.
Json StripVolatile(const Json& document);

/// Writes `Dump(2)` plus a trailing newline to `path`; throws
/// std::runtime_error if the file cannot be written.
void WriteJsonFile(const Json& document, const std::string& path);

}  // namespace sgr

#endif  // SGR_SCENARIO_REPORT_H_
