#include "restore/rewirer.h"

#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "analysis/properties.h"
#include "dk/triangle_tracker.h"
#include "graph/components.h"
#include "obs/metrics.h"

namespace sgr {

namespace {

/// Attempts between full objective recomputations: floating-point drift
/// control for the incrementally maintained L1 distance (the final
/// distance is always recomputed from scratch).
constexpr std::size_t kResyncInterval = 1 << 20;

/// One candidate 2-swap: replace edges e1 = (i, j) and e2 = (a, b) with
/// (i, b) and (a, j). `valid` is false for the attempts the loop skips
/// (identical edge draw, no degree-matched orientation, no-op swap).
struct SwapProposal {
  EdgeId e1 = 0;
  EdgeId e2 = 0;
  NodeId i = 0, j = 0, a = 0, b = 0;
  bool valid = false;
};

/// Draws one attempt: ordered pair of candidate edge ids, then a uniform
/// pick among the degree-matched endpoint orientations. Fills `p` in
/// place.
void DrawProposal(const Graph& g, std::size_t num_protected_edges,
                  std::size_t num_candidates, Rng& rng, SwapProposal& p) {
  p.valid = false;
  p.e1 = num_protected_edges + rng.NextIndex(num_candidates);
  p.e2 = num_protected_edges + rng.NextIndex(num_candidates);
  if (p.e1 == p.e2) return;
  const Edge edge1 = g.edge(p.e1);
  const Edge edge2 = g.edge(p.e2);

  // Orientations ((i,j),(a,b)) with deg(i) == deg(a); pick uniformly
  // among the valid ones.
  struct Orientation {
    NodeId i, j, a, b;
  };
  std::array<Orientation, 4> all = {
      Orientation{edge1.u, edge1.v, edge2.u, edge2.v},
      Orientation{edge1.u, edge1.v, edge2.v, edge2.u},
      Orientation{edge1.v, edge1.u, edge2.u, edge2.v},
      Orientation{edge1.v, edge1.u, edge2.v, edge2.u}};
  std::array<Orientation, 4> valid;
  std::size_t num_valid = 0;
  for (const Orientation& o : all) {
    if (g.Degree(o.i) == g.Degree(o.a)) valid[num_valid++] = o;
  }
  if (num_valid == 0) return;
  const Orientation o = valid[rng.NextIndex(num_valid)];

  // Swaps that leave the edge multiset unchanged cannot improve.
  if (o.i == o.a || o.j == o.b) return;

  p.i = o.i;
  p.j = o.j;
  p.a = o.a;
  p.b = o.b;
  p.valid = true;
}

/// Number of rewiring attempts R = RC * |E~rew|. Throws when R is not in
/// [0, 2^63): llround's result would be out of range there (LLONG_MIN,
/// which the cast turns into ~9.2e18 attempts).
std::size_t TotalAttempts(const RewireOptions& options,
                          std::size_t num_candidates) {
  const double attempts =
      options.rewiring_coefficient * static_cast<double>(num_candidates);
  if (!(attempts >= 0.0 && attempts < 9223372036854775808.0)) {
    std::ostringstream message;
    message << "rewiring: rc * candidate edges must be in [0, 2^63) (rc = "
            << options.rewiring_coefficient << ", " << num_candidates
            << " candidate edges)";
    throw std::invalid_argument(message.str());
  }
  return static_cast<std::size_t>(std::llround(attempts));
}

/// Throws unless `stop_epsilon` is 0, or positive with tracking on. The
/// adaptive stop reads the tracked distance, so a negative or NaN value,
/// or one set without tracking, would be silently ignored.
void CheckStopEpsilon(const RewireOptions& options) {
  const double epsilon = options.stop_epsilon;
  if (epsilon == 0.0 || (epsilon > 0.0 && options.track_properties)) return;
  std::ostringstream message;
  message << "rewiring: stop_epsilon must be >= 0 and needs "
             "track_properties (stop_epsilon = "
          << epsilon << ", track_properties = "
          << (options.track_properties ? "true" : "false") << ")";
  throw std::invalid_argument(message.str());
}

/// Attempt count at which convergence sample `index` (0-based) is due:
/// the samples split the attempt budget into kConvergenceSamples even
/// slices, the last one landing exactly on `total`.
std::size_t SampleThreshold(std::size_t total, std::size_t index) {
  return total * (index + 1) / kConvergenceSamples;
}

/// The convergence sample of the working graph after `attempts_done`
/// trial swaps. All reads — no RecomputeObjective, no RNG draws — so a
/// tracked run's trajectory is identical to an untracked one. c̄ comes from
/// the rewiring tracker's exact triangle counts (rejected trials are
/// already reverted), components and LCC from one BFS pass.
ConvergenceSample Sample(const Graph& g, const TriangleTracker& tracker,
                         std::size_t attempts_done, double objective) {
  ConvergenceSample sample;
  sample.attempts = attempts_done;
  sample.objective = objective;
  sample.clustering_global =
      NetworkClusteringFromTriangles(g, tracker.triangle_counts());
  const ComponentsResult components = ConnectedComponents(CsrGraph(g));
  sample.components = components.sizes.size();
  sample.lcc =
      components.sizes.empty() ? 0 : components.sizes[components.largest];
  return sample;
}

/// Records every convergence sample that became due at `attempts_done`
/// trial swaps.
void RecordDueSamples(RewireStats& stats, std::size_t total_attempts,
                      std::size_t attempts_done, double objective,
                      const Graph& g, const TriangleTracker& tracker,
                      std::size_t& next_sample) {
  while (next_sample < kConvergenceSamples &&
         attempts_done >= SampleThreshold(total_attempts, next_sample)) {
    stats.curve.push_back(Sample(g, tracker, attempts_done, objective));
    ++next_sample;
  }
}

/// Pads the curve to its fixed length with the final state — the shape an
/// adaptive-stop run leaves behind, so per-index aggregation across
/// trials stays aligned.
void PadCurve(RewireStats& stats, std::size_t attempts_done,
              double objective, const Graph& g,
              const TriangleTracker& tracker) {
  if (stats.curve.size() == kConvergenceSamples) return;
  stats.curve.resize(kConvergenceSamples,
                     Sample(g, tracker, attempts_done, objective));
}

/// Feeds the metrics registry once per rewiring run — never per attempt.
void RecordRewireMetrics(const RewireStats& stats) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricAdd("rewire.attempts", stats.attempts);
  obs::MetricAdd("rewire.accepted", stats.accepted);
}

}  // namespace

RewireStats RewireToClustering(Graph& g, std::size_t num_protected_edges,
                               const std::vector<double>& target_clustering,
                               const RewireOptions& options, Rng& rng) {
  CheckStopEpsilon(options);
  RewireStats stats;
  // Guard the underflow of |E~| - |E'| when callers protect more edges
  // than exist: nothing is rewirable, so the phase is a no-op.
  if (num_protected_edges >= g.NumEdges()) return stats;
  const std::size_t num_candidates = g.NumEdges() - num_protected_edges;
  if (num_candidates < 2) return stats;

  const std::size_t total_attempts = TotalAttempts(options, num_candidates);
  TriangleTracker tracker(g, target_clustering);
  double current = tracker.Objective();
  stats.initial_distance = current;
  stats.final_distance = current;
  stats.attempts = total_attempts;

  // Convergence samples only read the graph and the tracker; with
  // tracking off this engine's control flow and RNG stream are untouched.
  const bool tracking = options.track_properties;
  std::size_t next_sample = 0;
  std::size_t attempts_done = 0;

  const bool stop_at_start = tracking && options.stop_epsilon > 0.0 &&
                             current <= options.stop_epsilon;
  if (stop_at_start) {
    stats.stopped_early = true;
    stats.attempts = 0;
  }
  for (std::size_t attempt = 0;
       !stop_at_start && attempt < total_attempts; ++attempt) {
    if ((attempt + 1) % kResyncInterval == 0) {
      tracker.RecomputeObjective();
      current = tracker.Objective();
    }
    SwapProposal p;
    DrawProposal(g, num_protected_edges, num_candidates, rng, p);
    if (p.valid) {
      // Trial: apply on the tracker, accept iff the distance strictly
      // drops.
      tracker.RemoveEdge(p.i, p.j);
      tracker.RemoveEdge(p.a, p.b);
      tracker.AddEdge(p.i, p.b);
      tracker.AddEdge(p.a, p.j);
      const double proposed = tracker.Objective();
      if (proposed < current) {
        g.ReplaceEdge(p.e1, p.i, p.b);
        g.ReplaceEdge(p.e2, p.a, p.j);
        current = proposed;
        ++stats.accepted;
      } else {
        tracker.RemoveEdge(p.i, p.b);
        tracker.RemoveEdge(p.a, p.j);
        tracker.AddEdge(p.i, p.j);
        tracker.AddEdge(p.a, p.b);
      }
    }
    attempts_done = attempt + 1;
    if (tracking) {
      RecordDueSamples(stats, total_attempts, attempts_done, current, g,
                       tracker, next_sample);
      if (options.stop_epsilon > 0.0 && current <= options.stop_epsilon) {
        stats.stopped_early = true;
        stats.attempts = attempts_done;
        break;
      }
    }
  }
  if (tracking) PadCurve(stats, attempts_done, current, g, tracker);
  tracker.RecomputeObjective();
  stats.final_distance = tracker.Objective();
  RecordRewireMetrics(stats);
  return stats;
}

}  // namespace sgr
