#include "sampling/non_backtracking.h"

#include <utility>

namespace sgr {

SamplingList NonBacktrackingWalkSample(QueryOracle& oracle, NodeId seed,
                                       std::size_t target_queried, Rng& rng,
                                       std::size_t max_steps) {
  SamplingListRecorder recorder;
  NodeId current = seed;
  bool has_previous = false;
  NodeId previous = seed;
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
    // Cached neighbor list: stable storage, non-empty by construction
    // (only answered nodes are recorded).
    const std::vector<NodeId>& nbrs = recorder.Row(current);
    bool moved = false;
    for (std::size_t failures = 0; failures < kMaxConsecutiveFailedMoves;) {
      NodeId next;
      if (!has_previous || nbrs.size() == 1) {
        // First step, or a degree-1 dead end: plain uniform choice
        // (backtracking is the only option at a leaf).
        next = nbrs[rng.NextIndex(nbrs.size())];
      } else {
        // Uniform over incident edges that do not return to `previous`.
        // Rejection sampling is exact and O(1) expected because at most
        // one distinct neighbor is excluded (multi-edge copies of the
        // previous node are all excluded; retry until a non-previous
        // endpoint is drawn — guaranteed to exist since the walk arrived
        // through one of >= 2 distinct neighbors... if all neighbors
        // equal `previous` (parallel edges only), fall back to
        // backtracking).
        bool all_previous = true;
        for (NodeId w : nbrs) {
          if (w != previous) {
            all_previous = false;
            break;
          }
        }
        if (all_previous) {
          next = previous;
        } else {
          do {
            next = nbrs[rng.NextIndex(nbrs.size())];
          } while (next == previous);
        }
      }
      const NeighborSpan next_nbrs = oracle.Query(next);
      if (next_nbrs.empty()) {
        // Failed move (private account / spent budget): stay put and
        // redraw, bounded by the consecutive-failure cap. `previous` is
        // untouched — the non-backtracking constraint still refers to
        // the last edge actually walked.
        ++failures;
        continue;
      }
      recorder.Visit(next);
      recorder.Record(next, next_nbrs);
      previous = current;
      has_previous = true;
      current = next;
      moved = true;
      break;
    }
    if (!moved) break;  // stranded among failed neighbors
  }
  return std::move(recorder).Finish(/*is_walk=*/true);
}

}  // namespace sgr
