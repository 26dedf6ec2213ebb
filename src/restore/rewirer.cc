#include "restore/rewirer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>

#include "analysis/property_tracker.h"
#include "dk/triangle_tracker.h"
#include "exp/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgr {

namespace {

/// One candidate 2-swap: replace edges e1 = (i, j) and e2 = (a, b) with
/// (i, b) and (a, j). `valid` is false for the attempts the sequential
/// loop `continue`s over (identical edge draw, no degree-matched
/// orientation, no-op swap).
struct SwapProposal {
  EdgeId e1 = 0;
  EdgeId e2 = 0;
  NodeId i = 0, j = 0, a = 0, b = 0;
  bool valid = false;
  double delta = 0.0;                   // speculative objective delta
  std::vector<std::uint32_t> touched;   // degree classes the score read
};

/// Draws one attempt exactly the way the sequential loop always has:
/// ordered pair of candidate edge ids, then a uniform pick among the
/// degree-matched endpoint orientations. Consumes the same RNG draws in
/// the same order for both the sequential and the batched path. Fills
/// `p` in place (leaving p.touched alone, so the batched engine's
/// proposal slots keep their vector capacity across rounds).
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

/// Number of rewiring attempts R = RC * |E~rew| shared by both engines.
std::size_t TotalAttempts(const RewireOptions& options,
                          std::size_t num_candidates) {
  return static_cast<std::size_t>(
      std::llround(options.rewiring_coefficient *
                   static_cast<double>(num_candidates)));
}

/// Stream tag of the per-round proposal RNG (see DeriveRoundSeed).
constexpr std::uint64_t kRewireProposalStream = 0x5e71ULL;

/// Attempt count at which convergence sample `index` (0-based) is due:
/// the samples split the attempt budget into kConvergenceSamples even
/// slices, the last one landing exactly on `total`.
std::size_t SampleThreshold(std::size_t total, std::size_t index) {
  return total * (index + 1) / kConvergenceSamples;
}

/// Records every convergence sample that became due at `attempts_done`
/// trial swaps. All reads — no RecomputeObjective, no RNG draws — so a
/// tracked run's trajectory is identical to an untracked one.
void RecordDueSamples(RewireStats& stats, std::size_t total_attempts,
                      std::size_t attempts_done, double objective,
                      const PropertyTracker& props,
                      std::size_t& next_sample) {
  while (next_sample < kConvergenceSamples &&
         attempts_done >= SampleThreshold(total_attempts, next_sample)) {
    ConvergenceSample sample;
    sample.attempts = attempts_done;
    sample.objective = objective;
    sample.clustering_global = props.ClusteringGlobal();
    sample.components = props.NumComponents();
    sample.lcc = props.LccSize();
    stats.curve.push_back(sample);
    ++next_sample;
  }
}

/// Pads the curve to its fixed length with the final state — the shape an
/// adaptive-stop run leaves behind, so per-index aggregation across
/// trials stays aligned.
void PadCurve(RewireStats& stats, std::size_t attempts_done,
              double objective, const PropertyTracker& props) {
  ConvergenceSample sample;
  sample.attempts = attempts_done;
  sample.objective = objective;
  sample.clustering_global = props.ClusteringGlobal();
  sample.components = props.NumComponents();
  sample.lcc = props.LccSize();
  while (stats.curve.size() < kConvergenceSamples) {
    stats.curve.push_back(sample);
  }
}

/// Feeds the metrics registry once per rewiring run — never per attempt.
/// The round counters are zero on the sequential path, so only the
/// batched engine reports them; tracker.delta_ops counts the incremental
/// tracker updates a tracked run performed (one per accepted swap).
void RecordRewireMetrics(const RewireStats& stats) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricAdd("rewire.attempts", stats.attempts);
  obs::MetricAdd("rewire.accepted", stats.accepted);
  obs::MetricAdd("rewire.rounds", stats.rounds);
  obs::MetricAdd("rewire.evaluated", stats.evaluated);
  obs::MetricAdd("rewire.conflicts", stats.conflicts);
  obs::MetricAdd("rewire.reevaluated", stats.reevaluated);
  if (!stats.curve.empty()) {
    obs::MetricAdd("tracker.delta_ops", stats.accepted);
  }
}

}  // namespace

RewireStats RewireToClustering(Graph& g, std::size_t num_protected_edges,
                               const std::vector<double>& target_clustering,
                               const RewireOptions& options, Rng& rng) {
  RewireStats stats;
  // Guard the underflow of |E~| - |E'| when callers protect more edges
  // than exist: nothing is rewirable, so the phase is a no-op.
  if (num_protected_edges >= g.NumEdges()) return stats;
  const std::size_t num_candidates = g.NumEdges() - num_protected_edges;
  if (num_candidates < 2) return stats;

  TriangleTracker tracker(g, target_clustering);
  double current = tracker.Objective();
  stats.initial_distance = current;
  stats.final_distance = current;

  const std::size_t total_attempts = TotalAttempts(options, num_candidates);
  stats.attempts = total_attempts;

  // Property tracking observes committed swaps only; with tracking off
  // this engine's control flow and RNG stream are untouched.
  const bool tracking = options.track_properties;
  std::unique_ptr<PropertyTracker> props;
  if (tracking) props = std::make_unique<PropertyTracker>(g);
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
    // resync_interval == 0 means "never resync" (a modulo by zero here
    // used to be undefined behavior).
    if (options.resync_interval != 0 &&
        (attempt + 1) % options.resync_interval == 0) {
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
        if (tracking) props->ApplySwap(p.i, p.j, p.a, p.b);
      } else {
        tracker.RemoveEdge(p.i, p.b);
        tracker.RemoveEdge(p.a, p.j);
        tracker.AddEdge(p.i, p.j);
        tracker.AddEdge(p.a, p.b);
      }
    }
    attempts_done = attempt + 1;
    if (tracking) {
      RecordDueSamples(stats, total_attempts, attempts_done, current,
                       *props, next_sample);
      if (options.stop_epsilon > 0.0 && current <= options.stop_epsilon) {
        stats.stopped_early = true;
        stats.attempts = attempts_done;
        break;
      }
    }
  }
  if (tracking) PadCurve(stats, attempts_done, current, *props);
  tracker.RecomputeObjective();
  stats.final_distance = tracker.Objective();
  RecordRewireMetrics(stats);
  return stats;
}

RewireStats RewireToClusteringParallel(
    Graph& g, std::size_t num_protected_edges,
    const std::vector<double>& target_clustering,
    const RewireOptions& options, const ParallelRewireOptions& parallel,
    std::uint64_t seed) {
  RewireStats stats;
  if (num_protected_edges >= g.NumEdges()) return stats;
  const std::size_t num_candidates = g.NumEdges() - num_protected_edges;
  if (num_candidates < 2) return stats;

  TriangleTracker tracker(g, target_clustering);
  stats.initial_distance = tracker.Objective();
  stats.final_distance = stats.initial_distance;

  const std::size_t total_attempts = TotalAttempts(options, num_candidates);
  stats.attempts = total_attempts;
  if (total_attempts == 0) return stats;

  // Property tracking observes the commit phase only, so it cannot
  // perturb the proposal stream or the scores.
  const bool tracking = options.track_properties;
  std::unique_ptr<PropertyTracker> props;
  if (tracking) props = std::make_unique<PropertyTracker>(g);
  std::size_t next_sample = 0;

  const std::size_t batch_size =
      parallel.batch_size == 0 ? kDefaultRewireBatch : parallel.batch_size;

  std::vector<SwapProposal> proposals(batch_size);

  // Dirty footprint of the commits of the current round, stamped by round
  // number (stamp 0 = clean; rounds are 1-based below).
  std::vector<std::uint64_t> node_stamp(g.NumNodes(), 0);
  std::vector<std::uint64_t> class_stamp;
  std::vector<EdgeId> committed_edges;
  std::vector<std::uint32_t> commit_classes;

  // Note: the sequential loop's resync_interval drift control has no
  // analogue here. Acceptance never reads the incrementally maintained
  // objective — every score derives fresh from the exact integer T(k)
  // state — and the reported final distance is recomputed from scratch
  // below, so a mid-run RecomputeObjective could not change any output.
  std::size_t attempts_done = 0;
  std::uint64_t round = 0;
  bool stopped = tracking && options.stop_epsilon > 0.0 &&
                 tracker.Objective() <= options.stop_epsilon;
  if (stopped) {
    stats.stopped_early = true;
    stats.attempts = 0;
  }
  while (!stopped && attempts_done < total_attempts) {
    obs::Span round_span("rewire_round", "rewire");
    ++round;
    ++stats.rounds;
    const std::size_t this_batch =
        std::min(batch_size, total_attempts - attempts_done);

    // 1. Draw the round's proposals from a deterministic per-round
    //    stream, a pure function of (seed, round), and score each
    //    well-formed one against the frozen round-start tracker state
    //    (nothing is written to the graph or the tracker until step 2).
    Rng round_rng(DeriveRoundSeed(seed, kRewireProposalStream, round));
    for (std::size_t p = 0; p < this_batch; ++p) {
      SwapProposal& prop = proposals[p];
      DrawProposal(g, num_protected_edges, num_candidates, round_rng, prop);
      if (!prop.valid) continue;
      ++stats.evaluated;
      prop.touched.clear();
      prop.delta = tracker.EvaluateSwapDelta(prop.i, prop.j, prop.a,
                                             prop.b, &prop.touched);
    }

    // 2. Commit in canonical batch order.
    committed_edges.clear();
    for (std::size_t p = 0; p < this_batch; ++p) {
      SwapProposal& prop = proposals[p];
      if (!prop.valid) continue;
      // Speculative filter: not improving against round-start state.
      if (!(prop.delta < 0.0)) continue;
      // An earlier commit of this round already rewired one of the
      // proposal's edges: its recorded endpoints are stale, drop it.
      if (std::find(committed_edges.begin(), committed_edges.end(),
                    prop.e1) != committed_edges.end() ||
          std::find(committed_edges.begin(), committed_edges.end(),
                    prop.e2) != committed_edges.end()) {
        ++stats.conflicts;
        continue;
      }
      // The score read the four endpoint adjacencies and the touched
      // degree classes; if an earlier commit wrote any of them the value
      // is stale and must be re-derived against the live state.
      bool dirty = node_stamp[prop.i] == round ||
                   node_stamp[prop.j] == round ||
                   node_stamp[prop.a] == round ||
                   node_stamp[prop.b] == round;
      for (std::size_t t = 0; !dirty && t < prop.touched.size(); ++t) {
        const std::uint32_t k = prop.touched[t];
        dirty = k < class_stamp.size() && class_stamp[k] == round;
      }
      double delta = prop.delta;
      if (dirty) {
        ++stats.reevaluated;
        delta = tracker.EvaluateSwapDelta(prop.i, prop.j, prop.a, prop.b);
        if (!(delta < 0.0)) continue;
      }
      commit_classes.clear();
      tracker.ApplySwap(prop.i, prop.j, prop.a, prop.b, &commit_classes);
      g.ReplaceEdge(prop.e1, prop.i, prop.b);
      g.ReplaceEdge(prop.e2, prop.a, prop.j);
      if (tracking) props->ApplySwap(prop.i, prop.j, prop.a, prop.b);
      ++stats.accepted;
      committed_edges.push_back(prop.e1);
      committed_edges.push_back(prop.e2);
      node_stamp[prop.i] = round;
      node_stamp[prop.j] = round;
      node_stamp[prop.a] = round;
      node_stamp[prop.b] = round;
      for (const std::uint32_t k : commit_classes) {
        if (k >= class_stamp.size()) class_stamp.resize(k + 1, 0);
        class_stamp[k] = round;
      }
    }

    attempts_done += this_batch;
    if (tracking) {
      // The round objective is the incrementally maintained one — the
      // value acceptance already derives from — so sampling reads state,
      // never recomputes or perturbs it.
      RecordDueSamples(stats, total_attempts, attempts_done,
                       tracker.Objective(), *props, next_sample);
      if (options.stop_epsilon > 0.0 &&
          tracker.Objective() <= options.stop_epsilon) {
        stopped = true;
        stats.stopped_early = true;
        stats.attempts = attempts_done;
      }
    }
  }
  if (tracking) PadCurve(stats, attempts_done, tracker.Objective(), *props);
  tracker.RecomputeObjective();
  stats.final_distance = tracker.Objective();
  RecordRewireMetrics(stats);
  return stats;
}

}  // namespace sgr
