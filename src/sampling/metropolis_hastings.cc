#include "sampling/metropolis_hastings.h"

#include <utility>

namespace sgr {

SamplingList MetropolisHastingsWalkSample(QueryOracle& oracle, NodeId seed,
                                          std::size_t target_queried,
                                          Rng& rng,
                                          std::size_t max_steps) {
  SamplingListRecorder recorder;
  NodeId current = seed;
  {
    const NeighborSpan nbrs = oracle.Query(current);
    // Graceful Release-mode stop for a seed with no visible neighbors
    // (isolated node, private account) — previously an assert-only guard.
    if (nbrs.empty()) return std::move(recorder).Finish(/*is_walk=*/true);
    recorder.Visit(current);
    recorder.Record(current, nbrs);
  }
  while (recorder.NumQueried() < target_queried &&
         (max_steps == 0 || recorder.Length() < max_steps)) {
    // Cached neighbor list of the current node: stable storage, non-empty
    // by construction (only answered nodes are recorded).
    const std::vector<NodeId>& nbrs = recorder.Row(current);
    const std::size_t d_current = nbrs.size();
    bool progressed = false;
    for (std::size_t failures = 0; failures < kMaxConsecutiveFailedMoves;) {
      const NodeId proposal = nbrs[rng.NextIndex(nbrs.size())];
      // Acceptance needs d(proposal), which requires querying it — the
      // standard MHRW query cost. The oracle memoizes repeat queries of
      // the same node, matching how crawlers cache neighbor lists in
      // practice.
      const NeighborSpan proposal_nbrs = oracle.Query(proposal);
      if (proposal_nbrs.empty()) {
        // The proposed account answered nothing, so no acceptance ratio
        // exists: treat the attempt as a failed move (no visit recorded)
        // and redraw, bounded by the consecutive-failure cap.
        ++failures;
        continue;
      }
      // The proposal's neighbor list was paid for; keep it in the
      // sampling list like any crawler caches fetched data.
      recorder.Record(proposal, proposal_nbrs);
      const std::size_t d_proposal = proposal_nbrs.size();
      const double accept = static_cast<double>(d_current) /
                            static_cast<double>(d_proposal);
      if (accept >= 1.0 || rng.NextBernoulli(accept)) {
        current = proposal;
      }
      // A rejected proposal leaves `current` unchanged and records the
      // repeat visit, preserving the Markov chain's sojourn-time
      // statistics that make sample means unbiased.
      recorder.Visit(current);
      progressed = true;
      break;
    }
    if (!progressed) break;  // stranded among failed neighbors
  }
  return std::move(recorder).Finish(/*is_walk=*/true);
}

}  // namespace sgr
