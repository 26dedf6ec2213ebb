#include "exp/runner.h"

#include <cstdlib>
#include <stdexcept>

#include "exp/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/frontier.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/non_backtracking.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "sampling/subgraph.h"

namespace sgr {

namespace {

bool Wants(const ExperimentConfig& config, MethodKind kind) {
  for (MethodKind m : config.methods) {
    if (m == kind) return true;
  }
  return false;
}

/// Evaluates one method's restoration. Without `keep_graphs` the
/// generated graph and the estimates are freed here, before the trial's
/// next method allocates its own.
MethodRunResult Evaluate(MethodKind kind, RestorationResult restoration,
                         const GraphProperties& original_properties,
                         const PropertyOptions& property_options,
                         std::size_t sample_steps,
                         std::size_t oracle_queries, bool keep_graphs) {
  MethodRunResult result;
  result.kind = kind;
  obs::Span evaluate_span("evaluate");
  const GraphProperties generated =
      ComputeProperties(CsrGraph(restoration.graph), property_options);
  result.distances = PropertyDistances(original_properties, generated);
  result.average_distance = AverageDistance(result.distances);
  result.sd_distance = DistanceStandardDeviation(result.distances);
  evaluate_span.End();
  if (!keep_graphs) {
    restoration.graph = Graph();
    restoration.estimates = LocalEstimates();
  }
  result.restoration = std::move(restoration);
  result.sample_steps = static_cast<double>(sample_steps);
  result.oracle_queries = oracle_queries;
  return result;
}

/// Collects the shared sample of the walk-based trio according to the
/// crawler / walk axes. Every branch consumes RNG draws only through
/// `rng`, so the default (kRw + kSimple) reproduces the historical
/// RandomWalkSample stream exactly. `max_steps` caps walk trajectories
/// (0 = uncapped; the runner sets it only under noise, where hidden edges
/// can trap a walker inside a small visible component that can never meet
/// the queried-node target).
SamplingList SharedSample(QueryOracle& oracle, NodeId seed_node,
                          std::size_t budget,
                          const ExperimentConfig& config, Rng& rng,
                          std::size_t max_steps) {
  switch (config.crawler) {
    case CrawlerKind::kRw:
      switch (config.walk) {
        case WalkKind::kSimple:
          return RandomWalkSample(oracle, seed_node, budget, rng,
                                  max_steps);
        case WalkKind::kNonBacktracking:
          return NonBacktrackingWalkSample(oracle, seed_node, budget, rng,
                                           max_steps);
        case WalkKind::kMetropolisHastings:
          return MetropolisHastingsWalkSample(oracle, seed_node, budget,
                                              rng, max_steps);
      }
      break;
    case CrawlerKind::kFrontier: {
      std::vector<NodeId> seeds;
      seeds.reserve(config.frontier_walkers);
      seeds.push_back(seed_node);  // keep the shared seed node in play
      for (std::size_t i = 1; i < config.frontier_walkers; ++i) {
        seeds.push_back(
            static_cast<NodeId>(rng.NextIndex(oracle.HiddenNumNodes())));
      }
      return FrontierSample(oracle, seeds, budget, rng, max_steps);
    }
    case CrawlerKind::kMhrw:
      return MetropolisHastingsWalkSample(oracle, seed_node, budget, rng,
                                          max_steps);
    case CrawlerKind::kBfs:
      return BfsSample(oracle, seed_node, budget);
    case CrawlerKind::kSnowball:
      return SnowballSample(oracle, seed_node, budget, config.snowball_k,
                            rng);
    case CrawlerKind::kFf:
      return ForestFireSample(oracle, seed_node, budget,
                              config.forest_fire_pf, rng);
  }
  throw std::invalid_argument("unknown crawler kind");
}

/// Stream tag separating the perturbation seed from every other stream
/// derived from the run seed (rewire rounds, estimator bootstrap, ...).
constexpr std::uint64_t kNoiseStream = 0x6E6F6973;  // "nois"

/// Emits the perturbation counters of one crawl into the metrics
/// registry. Called only when noise is active, so noise-off cells carry
/// exactly the metric keys they always did.
void RecordNoiseMetrics(const PerturbedOracle& oracle) {
  obs::MetricAdd("oracle.api_calls",
                 static_cast<std::size_t>(oracle.api_calls()));
  obs::MetricAdd("oracle.failed_queries",
                 static_cast<std::size_t>(oracle.failed_queries()));
  obs::MetricAdd("oracle.suppressed_edges",
                 static_cast<std::size_t>(oracle.suppressed_edges()));
}

/// Shared implementation. `keep_graphs` selects whether the results carry
/// each method's generated graph and estimates (see Evaluate).
std::vector<MethodRunResult> RunExperimentImpl(
    const CsrGraph& original, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t run_seed,
    bool keep_graphs) {
  if (original.NumNodes() == 0) {
    throw std::invalid_argument("the hidden graph has no nodes");
  }
  obs::Span trial_span("trial");
  std::vector<MethodRunResult> results;
  Rng rng(run_seed);
  const auto budget = static_cast<std::size_t>(std::max<double>(
      1.0, config.query_fraction * static_cast<double>(original.NumNodes())));
  // The perturbation seed is a pure function of the run seed (itself
  // seed_base + cell * trials + trial), never of scheduling, so the fault
  // pattern is identical at every thread count.
  const std::uint64_t noise_seed = DeriveSeed(run_seed, kNoiseStream);
  NodeId seed_node =
      static_cast<NodeId>(rng.NextIndex(original.NumNodes()));
  if (config.noise.failure > 0.0) {
    // A researcher does not start a crawl from an account the platform
    // rejects outright — redraw (bounded) until the seed answers. The
    // extra draws happen only on the noise path, so noise-off runs
    // consume the historical RNG stream exactly.
    for (int tries = 0;
         tries < 128 && NoiseFailsNode(config.noise, noise_seed, seed_node);
         ++tries) {
      seed_node = static_cast<NodeId>(rng.NextIndex(original.NumNodes()));
    }
  }
  // Hidden edges / failures can strand a walker inside a small visible
  // component where the queried-node target is unreachable; the cap turns
  // that into a graceful short sample. Deterministic in (config, budget).
  const std::size_t walk_cap =
      config.noise.Active() ? 200 * budget + 10000 : 0;

  // BFS, snowball and forest fire: each crawls through a fresh oracle and
  // is evaluated on its sampled subgraph G'.
  const auto subgraph_method = [&](MethodKind kind, auto&& sampler) {
    if (!Wants(config, kind)) return;
    PerturbedOracle oracle(original, config.noise, noise_seed);
    obs::Span crawl_span("crawl");
    const SamplingList sample = sampler(oracle);
    crawl_span.End();
    obs::MetricAdd("oracle.queries", oracle.unique_queries());
    if (config.noise.Active()) RecordNoiseMetrics(oracle);
    results.push_back(Evaluate(kind, RestoreBySubgraphSampling(sample),
                               original_properties, config.property_options,
                               sample.Length(), oracle.unique_queries(),
                               keep_graphs));
  };
  subgraph_method(MethodKind::kBfs, [&](PerturbedOracle& oracle) {
    return BfsSample(oracle, seed_node, budget);
  });
  subgraph_method(MethodKind::kSnowball, [&](PerturbedOracle& oracle) {
    return SnowballSample(oracle, seed_node, budget, config.snowball_k, rng);
  });
  subgraph_method(MethodKind::kForestFire, [&](PerturbedOracle& oracle) {
    return ForestFireSample(oracle, seed_node, budget, config.forest_fire_pf,
                            rng);
  });

  const bool wants_generative = Wants(config, MethodKind::kGjoka) ||
                                Wants(config, MethodKind::kProposed);
  const bool needs_walk =
      Wants(config, MethodKind::kRandomWalk) || wants_generative;
  if (needs_walk) {
    // One sample shared by subgraph-RW, Gjoka et al., and the proposed
    // method (Section V-D: "we perform these methods for the same RW to
    // achieve a fair comparison"). The crawler / walk axes select how it
    // is collected; the default reproduces the paper's simple random walk.
    PerturbedOracle oracle(original, config.noise, noise_seed);
    obs::Span crawl_span("crawl");
    const SamplingList walk =
        SharedSample(oracle, seed_node, budget, config, rng, walk_cap);
    crawl_span.End();
    obs::MetricAdd("oracle.queries", oracle.unique_queries());
    if (config.noise.Active()) RecordNoiseMetrics(oracle);
    if (wants_generative && !walk.is_walk()) {
      throw std::invalid_argument(
          "generative methods (gjoka/proposed) require a walk crawler "
          "(rw|frontier|mhrw), not a bfs/snowball/ff crawl");
    }
    // The clustering estimator's normalizer is a property of the walk
    // that produced the sample — derive it here so the two can never
    // disagree (see WalkKind).
    RestorationOptions restoration = config.restoration;
    restoration.estimator.walk_type =
        (config.crawler == CrawlerKind::kRw &&
         config.walk == WalkKind::kNonBacktracking)
            ? WalkType::kNonBacktracking
            : WalkType::kSimple;
    if (Wants(config, MethodKind::kRandomWalk)) {
      results.push_back(Evaluate(
          MethodKind::kRandomWalk, RestoreBySubgraphSampling(walk),
          original_properties, config.property_options, walk.Length(),
          oracle.unique_queries(), keep_graphs));
    }
    if (Wants(config, MethodKind::kGjoka)) {
      results.push_back(Evaluate(
          MethodKind::kGjoka, RestoreGjoka(walk, restoration, rng),
          original_properties, config.property_options, walk.Length(),
          oracle.unique_queries(), keep_graphs));
    }
    if (Wants(config, MethodKind::kProposed)) {
      results.push_back(Evaluate(
          MethodKind::kProposed, RestoreProposed(walk, restoration, rng),
          original_properties, config.property_options, walk.Length(),
          oracle.unique_queries(), keep_graphs));
    }
  }
  return results;
}

}  // namespace

std::optional<std::string> EnvText(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

std::vector<MethodRunResult> RunExperiment(
    const CsrGraph& original, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t run_seed) {
  return RunExperimentImpl(original, original_properties, config, run_seed,
                           /*keep_graphs=*/true);
}

std::vector<MethodRunResult> RunExperimentWithoutGraphs(
    const CsrGraph& original, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t run_seed) {
  return RunExperimentImpl(original, original_properties, config, run_seed,
                           /*keep_graphs=*/false);
}

std::vector<std::vector<MethodRunResult>> RunExperiments(
    const CsrGraph& snapshot, const GraphProperties& original_properties,
    const ExperimentConfig& config, std::uint64_t seed_base,
    std::size_t num_trials, std::size_t threads) {
  std::vector<std::vector<MethodRunResult>> trials(num_trials);
  ParallelFor(num_trials, threads, [&](std::size_t i) {
    trials[i] = RunExperimentImpl(snapshot, original_properties, config,
                                  seed_base + i, /*keep_graphs=*/true);
  });
  return trials;
}

}  // namespace sgr
