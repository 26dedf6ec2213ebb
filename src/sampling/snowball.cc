#include "sampling/snowball.h"

#include <algorithm>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

namespace sgr {

SamplingList SnowballSample(QueryOracle& oracle, NodeId seed,
                            std::size_t target_queried,
                            std::size_t max_neighbors, Rng& rng) {
  SamplingListRecorder recorder;
  std::queue<NodeId> frontier;
  std::unordered_set<NodeId> enqueued;
  std::unordered_set<NodeId> discovered;   // every node ever seen, deduped
  std::vector<NodeId> discovered_order;    // insertion order, stable draws
  frontier.push(seed);
  enqueued.insert(seed);
  while (recorder.NumQueried() < target_queried) {
    if (frontier.empty()) {
      // Revive from a random discovered-but-unqueried node, if any remain.
      // The deduplicated pool keeps the draw uniform — the old code pushed
      // a node once per observation, biasing revives toward nodes with
      // many queried neighbors and growing memory without bound.
      std::vector<NodeId> candidates;
      for (NodeId v : discovered_order) {
        if (!recorder.Contains(v)) {
          candidates.push_back(v);
        }
      }
      if (candidates.empty()) break;  // component exhausted
      frontier.push(candidates[rng.NextIndex(candidates.size())]);
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

    // Choose up to `max_neighbors` distinct neighbors uniformly at random.
    std::vector<NodeId> unique(nbrs.begin(), nbrs.end());
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    std::shuffle(unique.begin(), unique.end(), rng.engine());
    const std::size_t follow = std::min(max_neighbors, unique.size());
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (discovered.insert(unique[i]).second) {
        discovered_order.push_back(unique[i]);
      }
      if (i < follow && enqueued.insert(unique[i]).second) {
        frontier.push(unique[i]);
      }
    }
  }
  return std::move(recorder).Finish(/*is_walk=*/false);
}

}  // namespace sgr
