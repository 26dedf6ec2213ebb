#include "scenario/engine.h"

#include <ostream>

#include "exp/datasets.h"
#include "exp/parallel.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace sgr {

namespace {

/// Materializes a scenario dataset as an immutable CSR snapshot — the
/// form every trial consumes. Registry datasets route through
/// LoadDatasetCsr: file-backed ones use the out-of-core ingester and
/// never build an intermediate Graph (the paper-scale path), generator
/// ones produce the identical snapshot the old Graph path did.
CsrGraph Materialize(const ScenarioDataset& dataset, double dataset_scale,
                     DatasetProvenance* provenance) {
  if (dataset.generator) {
    provenance->name = dataset.name;
    provenance->source = "generator";
    provenance->scale = 1.0;  // generator specs carry explicit sizes
    return CsrGraph(BuildGeneratorGraph(*dataset.generator));
  }
  return LoadDatasetCsr(DatasetByName(dataset.name), dataset_scale, provenance);
}

}  // namespace

ScenarioCell RunScenarioCell(const std::string& dataset_name,
                             const CsrGraph& dataset,
                             const GraphProperties& properties,
                             const ExperimentConfig& config,
                             std::size_t trials, std::uint64_t seed_base,
                             std::size_t threads) {
  ScenarioCell cell;
  cell.dataset = dataset_name;
  cell.nodes = dataset.NumNodes();
  cell.edges = dataset.NumEdges();
  // The knob echo comes straight from the config actually executed, so a
  // cell is attributable to its axis coordinates no matter who built the
  // config (engine or bench).
  cell.knobs = CellKnobsOf(config);
  cell.seed_base = seed_base;
  cell.trials = trials;

  // Counters are attributed to this cell by snapshot delta: cells run
  // strictly sequentially (only trials inside one are concurrent), so
  // whatever the registry gained between the two snapshots is this
  // cell's. High-water gauges can't be differenced, so they reset here,
  // at the cell boundary.
  const bool metered = obs::MetricsEnabled();
  obs::MetricsSnapshot counters_before;
  if (metered) {
    obs::ResetMaxMetrics();
    counters_before = obs::SnapshotCounters();
  }

  obs::Span cell_span("cell");
  Timer timer;
  const auto all_trials =
      RunExperiments(dataset, properties, config, seed_base, trials, threads);
  cell.wall_seconds = timer.Seconds();
  cell_span.End();

  if (metered) {
    for (const auto& [name, delta] :
         obs::CounterDelta(counters_before, obs::SnapshotCounters())) {
      cell.metrics[name] = static_cast<double>(delta);
    }
    for (const auto& [name, value] : obs::SnapshotMaxMetrics()) {
      cell.metrics[name] = static_cast<double>(value);
    }
    cell.metrics["peak_rss_bytes"] =
        static_cast<double>(obs::PeakRssBytes());
  }

  // Trials come back indexed by trial number, so this reduction order —
  // and therefore every accumulated double — is thread-count independent.
  for (const auto& results : all_trials) {
    for (const MethodRunResult& r : results) {
      MethodAggregate& aggregate = cell.methods[r.kind];
      aggregate.distances.Add(r.distances);
      aggregate.total_seconds += r.restoration.total_seconds;
      aggregate.rewiring_seconds += r.restoration.rewiring_seconds;
      aggregate.sample_steps += r.sample_steps;
      aggregate.oracle_queries += static_cast<double>(r.oracle_queries);
      const RewireStats& rw = r.restoration.rewire_stats;
      aggregate.rewire.attempts += static_cast<double>(rw.attempts);
      aggregate.rewire.accepted += static_cast<double>(rw.accepted);
      aggregate.rewire.rounds += static_cast<double>(rw.rounds);
      aggregate.rewire.evaluated += static_cast<double>(rw.evaluated);
      aggregate.rewire.conflicts += static_cast<double>(rw.conflicts);
      aggregate.rewire.reevaluated += static_cast<double>(rw.reevaluated);
      aggregate.rewire.initial_distance += rw.initial_distance;
      aggregate.rewire.final_distance += rw.final_distance;
      if (rw.stopped_early) aggregate.stopped_early += 1.0;
      if (!rw.curve.empty()) {
        if (aggregate.convergence.size() < rw.curve.size()) {
          aggregate.convergence.resize(rw.curve.size());
        }
        for (std::size_t i = 0; i < rw.curve.size(); ++i) {
          const ConvergenceSample& sample = rw.curve[i];
          ConvergencePoint& point = aggregate.convergence[i];
          point.attempts += static_cast<double>(sample.attempts);
          point.objective += sample.objective;
          point.clustering_global += sample.clustering_global;
          point.components += static_cast<double>(sample.components);
          point.lcc += static_cast<double>(sample.lcc);
        }
      }
    }
  }
  for (auto& [kind, aggregate] : cell.methods) {
    (void)kind;
    const double inv = 1.0 / static_cast<double>(trials);
    aggregate.total_seconds *= inv;
    aggregate.rewiring_seconds *= inv;
    aggregate.sample_steps *= inv;
    aggregate.oracle_queries *= inv;
    for (const auto& [key, field] : kRewireFields) {
      aggregate.rewire.*field *= inv;
    }
    aggregate.stopped_early *= inv;
    for (ConvergencePoint& point : aggregate.convergence) {
      for (const auto& [key, field] : kConvergenceFields) point.*field *= inv;
    }
  }
  return cell;
}

ScenarioRunResult RunScenario(const ScenarioSpec& spec,
                              std::size_t threads_override,
                              std::ostream* progress,
                              std::size_t rewire_threads_override,
                              std::size_t assembly_threads_override,
                              std::size_t estimator_threads_override) {
  // Programmatically built specs never pass through FromJson — gate the
  // engine on the same semantic validation (finite numbers, non-empty
  // axes, cross-axis rules) so an invalid spec cannot reach a dataset
  // loader or an ExperimentConfig.
  spec.Validate();
  ScenarioRunResult result;
  result.spec = spec;
  const auto resolve = [](std::size_t override, std::size_t from_spec) {
    return ResolveThreadCount(override == kThreadsFromSpec ? from_spec
                                                           : override);
  };
  result.threads = resolve(threads_override, spec.threads);
  result.rewire_threads = resolve(rewire_threads_override, spec.rewire_threads);
  result.assembly_threads =
      resolve(assembly_threads_override, spec.assembly_threads);
  result.estimator_threads =
      resolve(estimator_threads_override, spec.estimator_threads);

  const std::vector<CellKnobs> knob_matrix = spec.ExpandKnobs();
  std::size_t cell_index = 0;
  for (const ScenarioDataset& dataset_spec : spec.datasets) {
    DatasetProvenance provenance;
    const CsrGraph dataset =
        Materialize(dataset_spec, spec.dataset_scale, &provenance);
    result.datasets.push_back(provenance);
    // Properties of the original depend on the dataset and the evaluation
    // options only — compute once, share across the knob sweep.
    const GraphProperties properties = ComputeProperties(
        dataset, spec.ToExperimentConfig(spec.fractions.front())
                     .property_options);
    for (const CellKnobs& knobs : knob_matrix) {
      // uint64 arithmetic wraps modulo 2^64 by design — see the seeding
      // contract in engine.h.
      const std::uint64_t cell_seed =
          spec.seed_base +
          static_cast<std::uint64_t>(cell_index) *
              static_cast<std::uint64_t>(spec.trials);
      ExperimentConfig config = spec.ToExperimentConfig(knobs);
      // The intra-trial worker counts are execution knobs — overriding
      // them (or resolving 0 to the hardware) must not leak into the
      // spec echo.
      config.restoration.parallel_rewire.threads = result.rewire_threads;
      config.restoration.parallel_assembly.threads =
          result.assembly_threads;
      config.restoration.estimator.threads = result.estimator_threads;
      ScenarioCell cell = RunScenarioCell(
          dataset_spec.name, dataset, properties, config, spec.trials,
          cell_seed, result.threads);
      if (progress != nullptr) {
        *progress << "cell " << CellLabel(cell.dataset, knobs)
                  << ": n = " << cell.nodes << ", m = " << cell.edges
                  << ", " << spec.trials << " trials in "
                  << cell.wall_seconds << " s\n";
      }
      result.cells.push_back(std::move(cell));
      ++cell_index;
    }
  }
  return result;
}

Json ScenarioReportToJson(const ScenarioRunResult& result) {
  Json cells = Json::Array();
  for (const ScenarioCell& cell : result.cells) {
    cells.Push(ScenarioCellToJson(cell));
  }
  RunEnvironment environment =
      CaptureEnvironment(result.threads, result.rewire_threads,
                         result.assembly_threads, result.estimator_threads);
  environment.datasets = result.datasets;
  return MakeReport("sgr run", result.spec.ToJson(), std::move(cells),
                    environment);
}

}  // namespace sgr
