#include "sampling/frontier.h"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace sgr {

SamplingList FrontierSample(QueryOracle& oracle,
                            const std::vector<NodeId>& seeds,
                            std::size_t target_queried, Rng& rng,
                            std::size_t max_steps) {
  if (seeds.empty()) {
    throw std::invalid_argument(
        "frontier sampling requires at least one seed");
  }
  SamplingListRecorder recorder;

  // Initialize walker positions; each position is queried so its degree is
  // known for the degree-proportional walker choice. A seed whose query
  // returns nothing (isolated node, private account) leaves a walker of
  // degree 0 — it is never chosen and records nothing, so the sampling
  // list holds only nodes with known non-empty neighbor lists.
  std::vector<NodeId> walkers = seeds;
  std::vector<std::size_t> degrees(walkers.size(), 0);
  for (std::size_t i = 0; i < walkers.size(); ++i) {
    const NeighborSpan nbrs = oracle.Query(walkers[i]);
    if (nbrs.empty()) continue;
    recorder.Visit(walkers[i]);
    recorder.Record(walkers[i], nbrs);
    degrees[i] = nbrs.size();
  }

  std::size_t failures = 0;
  while (recorder.NumQueried() < target_queried &&
         (max_steps == 0 || recorder.Length() < max_steps)) {
    // Choose a walker proportionally to its degree. A zero total means
    // every walker sits on a node with no visible neighbors — the walk
    // is over. (This used to flow into NextIndex(0) and an off-the-end
    // walker scan: Release-mode UB.)
    const auto total = std::accumulate(degrees.begin(), degrees.end(),
                                       std::size_t{0});
    if (total == 0) break;
    std::size_t draw = rng.NextIndex(total);
    std::size_t chosen = 0;
    while (draw >= degrees[chosen]) {
      draw -= degrees[chosen];
      ++chosen;
    }
    // Move it across a uniform incident edge.
    const auto& nbrs = recorder.Row(walkers[chosen]);
    const NodeId next = nbrs[rng.NextIndex(nbrs.size())];
    const NeighborSpan next_nbrs = oracle.Query(next);
    if (next_nbrs.empty()) {
      // Failed move: the walker stays on its current node (whose list it
      // already holds). The cap bounds the walk against an oracle that
      // answers nothing at all.
      if (++failures >= kMaxConsecutiveFailedMoves) break;
      continue;
    }
    failures = 0;
    recorder.Visit(next);
    recorder.Record(next, next_nbrs);
    walkers[chosen] = next;
    degrees[chosen] = next_nbrs.size();
  }
  return std::move(recorder).Finish(/*is_walk=*/true);
}

}  // namespace sgr
