#include "sampling/random_walk.h"

#include <utility>

namespace sgr {

SamplingList RandomWalkSample(QueryOracle& oracle, NodeId seed,
                              std::size_t target_queried, Rng& rng,
                              std::size_t max_steps) {
  SamplingListRecorder recorder;
  NodeId current = seed;
  {
    const NeighborSpan nbrs = oracle.Query(current);
    // A seed with no visible neighbors (isolated node, private account,
    // spent API budget) cannot start a walk. Returning the empty list is
    // the graceful Release-mode answer to what used to be an assert-only
    // guard.
    if (nbrs.empty()) return std::move(recorder).Finish(/*is_walk=*/true);
    recorder.Visit(current);
    recorder.Record(current, nbrs);
  }
  while (recorder.NumQueried() < target_queried &&
         (max_steps == 0 || recorder.Length() < max_steps)) {
    // Draw from the cached neighbor list (stable storage — oracle spans
    // may be backed by reused scratch). Recorded nodes always have a
    // non-empty list, so NextIndex's positive-bound contract holds.
    const std::vector<NodeId>& nbrs = recorder.Row(current);
    bool moved = false;
    for (std::size_t failures = 0; failures < kMaxConsecutiveFailedMoves;) {
      const NodeId next = nbrs[rng.NextIndex(nbrs.size())];
      const NeighborSpan next_nbrs = oracle.Query(next);
      if (next_nbrs.empty()) {
        // Failed move: the stepped-to account answered nothing. Stay put
        // and redraw; the cap bounds the walk against an oracle that
        // answers nothing at all. Failed nodes are never recorded, so
        // the sampling list holds only nodes with known neighbor lists.
        ++failures;
        continue;
      }
      recorder.Visit(next);
      recorder.Record(next, next_nbrs);
      current = next;
      moved = true;
      break;
    }
    if (!moved) break;  // stranded among failed neighbors
  }
  return std::move(recorder).Finish(/*is_walk=*/true);
}

}  // namespace sgr
