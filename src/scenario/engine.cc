#include "scenario/engine.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

#include "exp/datasets.h"
#include "exp/parallel.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace sgr {

namespace {

/// Materializes a scenario dataset as an immutable CSR snapshot — the
/// form every trial consumes. Registry datasets route through
/// LoadDatasetCsr: file-backed ones use the out-of-core ingester (the
/// paper-scale path). Every dataset is preprocessed by PreprocessDataset.
CsrGraph Materialize(const ScenarioDataset& dataset, double dataset_scale,
                     DatasetProvenance* provenance) {
  if (dataset.generator) {
    provenance->name = dataset.name;
    provenance->source = "generator";
    provenance->scale = 1.0;  // generator specs carry explicit sizes
    return BuildGeneratorGraph(*dataset.generator);
  }
  return LoadDatasetCsr(DatasetByName(dataset.name), dataset_scale, provenance);
}

/// One cell of the trial matrix: `trials` trials of `config` on a shared
/// dataset snapshot, trial i seeded `seed_base + i`. `dataset_path` is the
/// edge-list file the snapshot came from (empty for a generated one).
struct CellJob {
  const std::string* dataset_name;
  const std::string* dataset_path;
  const CsrGraph* dataset;
  const GraphProperties* properties;
  ExperimentConfig config;
  std::uint64_t seed_base;
};

/// What one (cell, trial) task leaves for its cell's fold.
struct TrialSlot {
  std::vector<MethodRunResult> results;
  double seconds = 0.0;
  obs::MetricsSink metrics;
};

/// Runs `fn(i)` for i in [0, count) on `pool`, or inline without one.
void ForEach(ThreadPool* pool, std::size_t count,
             const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    PoolFor(*pool, count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

/// Aggregates one cell's trials, in trial order, into its ScenarioCell.
/// The reduction order — and therefore every accumulated double — is the
/// same at every thread count.
ScenarioCell FoldCell(const CellJob& job, const std::vector<TrialSlot>& trials,
                      bool metered) {
  obs::Span cell_span("cell");
  ScenarioCell cell;
  cell.dataset = *job.dataset_name;
  cell.nodes = job.dataset->NumNodes();
  cell.edges = job.dataset->NumEdges();
  // The knob echo comes straight from the config actually executed.
  cell.knobs = CellKnobsOf(job.config);
  cell.seed_base = job.seed_base;
  cell.trials = trials.size();

  obs::MetricsSnapshot counters;
  obs::MetricsSnapshot maxima;
  for (const TrialSlot& trial : trials) {
    cell.wall_seconds += trial.seconds;
    if (metered) {
      for (const auto& [name, value] : trial.metrics.Counters()) {
        counters[name] += value;
      }
      for (const auto& [name, value] : trial.metrics.Maxima()) {
        maxima[name] = std::max(maxima[name], value);
      }
    }
    for (const MethodRunResult& r : trial.results) {
      MethodAggregate& aggregate = cell.methods[r.kind];
      aggregate.distances.Add(r.distances);
      aggregate.total_seconds += r.restoration.total_seconds;
      aggregate.rewiring_seconds += r.restoration.rewiring_seconds;
      aggregate.sample_steps += r.sample_steps;
      aggregate.oracle_queries += static_cast<double>(r.oracle_queries);
      const RewireStats& rw = r.restoration.rewire_stats;
      aggregate.rewire.attempts += static_cast<double>(rw.attempts);
      aggregate.rewire.accepted += static_cast<double>(rw.accepted);
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
    const double inv = 1.0 / static_cast<double>(trials.size());
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

  if (metered) {
    for (const auto& [name, value] : counters) {
      cell.metrics[name] = static_cast<double>(value);
    }
    for (const auto& [name, value] : maxima) {
      cell.metrics[name] = static_cast<double>(value);
    }
    cell.metrics["peak_rss_bytes"] = static_cast<double>(obs::PeakRssBytes());
  }
  return cell;
}

/// The trial scheduler: runs every (cell, trial) task of `jobs` on `pool`
/// (inline without one) and returns the cells in job order. Workers claim
/// tasks largest dataset first — by NumEdges, then cell, then trial — so
/// the longest trials start early and the run does not end on one of
/// them; the order changes only timing, since every result goes to its
/// own [cell][trial] slot. A metrics sink is open around each trial. A
/// cell is folded, and its `progress` line written, as soon as it and
/// every earlier cell have finished, so the lines come in cell order.
std::vector<ScenarioCell> RunCells(const std::vector<CellJob>& jobs,
                                   std::size_t trials, ThreadPool* pool,
                                   std::ostream* progress) {
  const bool metered = obs::MetricsEnabled();
  std::vector<std::vector<TrialSlot>> slots;
  slots.reserve(jobs.size());
  for (std::size_t c = 0; c < jobs.size(); ++c) slots.emplace_back(trials);

  std::vector<std::size_t> order(jobs.size() * trials);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a / trials].dataset->NumEdges() >
                            jobs[b / trials].dataset->NumEdges();
                   });

  std::mutex fold_mutex;  // guards remaining, folded, cells and progress
  std::vector<std::size_t> remaining(jobs.size(), trials);
  std::vector<ScenarioCell> cells(jobs.size());
  std::size_t folded = 0;
  const auto fold_finished = [&] {
    for (; folded < jobs.size() && remaining[folded] == 0; ++folded) {
      cells[folded] = FoldCell(jobs[folded], slots[folded], metered);
      std::vector<TrialSlot>().swap(slots[folded]);
      if (progress != nullptr) {
        const ScenarioCell& cell = cells[folded];
        *progress << "cell " << CellLabel(cell.dataset, cell.knobs)
                  << ": n = " << cell.nodes << ", m = " << cell.edges << ", "
                  << trials << " trials in " << cell.wall_seconds << " s\n";
      }
    }
  };

  ForEach(pool, order.size(), [&](std::size_t k) {
    const std::size_t c = order[k] / trials;
    const std::size_t i = order[k] % trials;
    const CellJob& job = jobs[c];
    TrialSlot& slot = slots[c][i];
    {
      const obs::ScopedMetricsSink sink(&slot.metrics);
      Timer timer;
      try {
        slot.results = RunExperimentWithoutGraphs(
            *job.dataset, *job.properties, job.config, job.seed_base + i);
      } catch (const std::invalid_argument& e) {
        // Name the input the trial rejected (e.g. an empty edge list).
        std::string where = "dataset '" + *job.dataset_name + "'";
        if (!job.dataset_path->empty()) {
          where += " (" + *job.dataset_path + ")";
        }
        throw std::invalid_argument(where + ": " + e.what());
      }
      slot.seconds = timer.Seconds();
    }
    const std::lock_guard<std::mutex> lock(fold_mutex);
    --remaining[c];
    fold_finished();
  });
  fold_finished();  // cells without trials
  return cells;
}

}  // namespace

ScenarioRunResult RunScenario(const ScenarioSpec& spec,
                              std::size_t threads_override,
                              std::ostream* progress) {
  // Programmatically built specs never pass through FromJson — gate the
  // engine on the same semantic validation (finite numbers, non-empty
  // axes, cross-axis rules) so an invalid spec cannot reach a dataset
  // loader or an ExperimentConfig.
  spec.Validate();
  ScenarioRunResult result;
  result.spec = spec;
  if (threads_override != kThreadsFromSpec && threads_override > kMaxThreads) {
    throw ScenarioError("threads override " +
                        std::to_string(threads_override) +
                        " exceeds the limit of " +
                        std::to_string(kMaxThreads));
  }
  result.threads = ResolveThreadCount(
      threads_override == kThreadsFromSpec ? spec.threads : threads_override);

  // The run's thread count reaches the evaluation through the spec's
  // `threads` row (PropertyOptions::threads); the report echoes `spec`.
  ScenarioSpec run_spec = spec;
  run_spec.threads = result.threads;

  const std::vector<CellKnobs> knob_matrix = spec.ExpandKnobs();
  const std::size_t num_datasets = spec.datasets.size();
  // One pool runs both phases and every evaluation inside them (nested
  // PoolFor); a 1-thread run starts no thread at all.
  std::optional<ThreadPool> pool;
  if (result.threads > 1) pool.emplace(result.threads);
  ThreadPool* const pool_ptr = pool ? &*pool : nullptr;

  // Set-up: every dataset is materialized, with the properties of the
  // original (they depend on the dataset and the evaluation options only,
  // so the knob sweep shares them), and stays resident until the last
  // trial has run.
  std::vector<CsrGraph> datasets(num_datasets);
  std::vector<GraphProperties> properties(num_datasets);
  result.datasets.resize(num_datasets);
  const PropertyOptions property_options =
      run_spec.ToExperimentConfig(spec.fractions.front()).property_options;
  ForEach(pool_ptr, num_datasets, [&](std::size_t d) {
    obs::Span setup_span("setup");
    datasets[d] = Materialize(spec.datasets[d], spec.dataset_scale,
                              &result.datasets[d]);
    obs::Span properties_span("original_properties");
    properties[d] = ComputeProperties(datasets[d], property_options);
  });

  // Trials: the whole matrix as one task list.
  std::vector<CellJob> jobs;
  jobs.reserve(num_datasets * knob_matrix.size());
  for (std::size_t d = 0; d < num_datasets; ++d) {
    for (const CellKnobs& knobs : knob_matrix) {
      // uint64 arithmetic wraps modulo 2^64 by design — see the seeding
      // contract in engine.h.
      const std::uint64_t cell_seed =
          spec.seed_base + static_cast<std::uint64_t>(jobs.size()) *
                               static_cast<std::uint64_t>(spec.trials);
      jobs.push_back(CellJob{&spec.datasets[d].name,
                             &result.datasets[d].path, &datasets[d],
                             &properties[d],
                             run_spec.ToExperimentConfig(knobs),
                             cell_seed});
    }
  }
  result.cells = RunCells(jobs, spec.trials, pool_ptr, progress);
  return result;
}

Json ScenarioReportToJson(const ScenarioRunResult& result) {
  Json cells = Json::Array();
  for (const ScenarioCell& cell : result.cells) {
    cells.Push(ScenarioCellToJson(cell));
  }
  RunEnvironment environment = CaptureEnvironment(result.threads);
  environment.datasets = result.datasets;
  return MakeReport("sgr run", result.spec.ToJson(), std::move(cells),
                    environment);
}

}  // namespace sgr
