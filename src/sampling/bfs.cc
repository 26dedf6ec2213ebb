#include "sampling/bfs.h"

#include <queue>
#include <unordered_set>
#include <utility>

namespace sgr {

SamplingList BfsSample(QueryOracle& oracle, NodeId seed,
                       std::size_t target_queried) {
  SamplingListRecorder recorder;
  std::queue<NodeId> frontier;
  std::unordered_set<NodeId> discovered;
  frontier.push(seed);
  discovered.insert(seed);
  while (!frontier.empty() && recorder.NumQueried() < target_queried) {
    NodeId v = frontier.front();
    frontier.pop();
    const NeighborSpan nbrs = oracle.Query(v);
    // A node that answers nothing (private account, spent API budget) is
    // recorded with an empty list: the query was spent, and the frontier
    // simply gains no children from it.
    recorder.Visit(v);
    recorder.Record(v, nbrs);
    for (NodeId w : nbrs) {
      if (discovered.insert(w).second) frontier.push(w);
    }
  }
  return std::move(recorder).Finish(/*is_walk=*/false);
}

}  // namespace sgr
