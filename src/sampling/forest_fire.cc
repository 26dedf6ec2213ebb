#include "sampling/forest_fire.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

namespace sgr {

SamplingList ForestFireSample(QueryOracle& oracle, NodeId seed,
                              std::size_t target_queried,
                              double forward_probability, Rng& rng) {
  // pf >= 1 would make the geometric burst draw degenerate (success
  // probability <= 0, an unbounded burn), and a negative or NaN pf is
  // meaningless; the `!(>= 0)` form also rejects NaN. pf == 0 is valid
  // (every burst is empty; the fire only spreads through revives).
  if (!(forward_probability >= 0.0) || forward_probability >= 1.0) {
    throw std::invalid_argument(
        "forest fire: forward_probability must be in [0, 1)");
  }
  SamplingListRecorder recorder;
  std::queue<NodeId> frontier;
  std::unordered_set<NodeId> burned;  // enqueued-or-queried
  std::unordered_set<NodeId> seen;    // every node ever seen, deduplicated
  std::vector<NodeId> seen_order;     // insertion order, for stable draws
  frontier.push(seed);
  burned.insert(seed);
  seen.insert(seed);
  seen_order.push_back(seed);

  // Geometric burst with mean pf/(1-pf): success probability 1 - pf.
  const double success = 1.0 - forward_probability;

  while (recorder.NumQueried() < target_queried) {
    if (frontier.empty()) {
      // Revive: restart the fire from a uniformly random sampled node whose
      // neighborhood may still contain unburned nodes. Drawing from the
      // deduplicated seen set keeps the draw uniform — the old code pushed
      // a node once per time it was observed, biasing revives toward nodes
      // with many queried neighbors and growing memory without bound.
      std::vector<NodeId> candidates;
      for (NodeId v : seen_order) {
        if (!recorder.Contains(v)) {
          candidates.push_back(v);
        }
      }
      if (candidates.empty()) break;  // everything reachable is queried
      NodeId revive = candidates[rng.NextIndex(candidates.size())];
      frontier.push(revive);
      burned.insert(revive);
    }
    NodeId v = frontier.front();
    frontier.pop();
    if (recorder.Contains(v)) continue;
    const NeighborSpan nbrs = oracle.Query(v);
    // A node that answers nothing (private account, spent API budget) is
    // recorded with an empty list: it cost a query, and recording it keeps
    // it out of future revive draws so the loop always terminates.
    recorder.Visit(v);
    recorder.Record(v, nbrs);

    std::vector<NodeId> unburned;
    for (NodeId w : nbrs) {
      if (burned.count(w) == 0) unburned.push_back(w);
    }
    std::sort(unburned.begin(), unburned.end());
    unburned.erase(std::unique(unburned.begin(), unburned.end()),
                   unburned.end());
    std::shuffle(unburned.begin(), unburned.end(), rng.engine());
    const std::size_t burst =
        std::min(unburned.size(), rng.NextGeometric(success));
    for (std::size_t i = 0; i < unburned.size(); ++i) {
      if (seen.insert(unburned[i]).second) {
        seen_order.push_back(unburned[i]);
      }
      if (i < burst) {
        burned.insert(unburned[i]);
        frontier.push(unburned[i]);
      }
    }
  }
  return std::move(recorder).Finish(/*is_walk=*/false);
}

}  // namespace sgr
