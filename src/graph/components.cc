#include "graph/components.h"

#include <algorithm>

namespace sgr {

namespace {

/// BFS from every unvisited node in ascending order; `neighbors(v)` returns
/// v's neighbor list.
template <typename Neighbors>
ComponentsResult BfsComponents(std::size_t n, Neighbors&& neighbors) {
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  ComponentsResult result;
  result.component_of.assign(n, kUnvisited);
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId start = 0; start < n; ++start) {
    if (result.component_of[start] != kUnvisited) continue;
    const std::size_t comp = result.sizes.size();
    result.sizes.push_back(0);
    queue.clear();
    queue.push_back(start);
    result.component_of[start] = comp;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      ++result.sizes[comp];
      for (NodeId w : neighbors(queue[head])) {
        if (result.component_of[w] == kUnvisited) {
          result.component_of[w] = comp;
          queue.push_back(w);
        }
      }
    }
  }
  if (!result.sizes.empty()) {
    result.largest = static_cast<std::size_t>(
        std::max_element(result.sizes.begin(), result.sizes.end()) -
        result.sizes.begin());
  }
  return result;
}

}  // namespace

ComponentsResult ConnectedComponents(const Graph& g) {
  return BfsComponents(g.NumNodes(),
                       [&](NodeId v) -> const std::vector<NodeId>& {
                         return g.adjacency(v);
                       });
}

ComponentsResult ConnectedComponents(const CsrGraph& g) {
  NeighborCursor cursor(g);
  return BfsComponents(g.NumNodes(),
                       [&](NodeId v) { return cursor.Load(v); });
}

std::size_t CountComponents(const Graph& g) {
  return ConnectedComponents(g).sizes.size();
}

bool IsConnected(const Graph& g) {
  return g.NumNodes() > 0 && CountComponents(g) == 1;
}

Graph LargestConnectedComponent(const Graph& g,
                                std::vector<NodeId>* old_to_new) {
  const ComponentsResult comps = ConnectedComponents(g);
  std::vector<NodeId> mapping(g.NumNodes(), kNotInLcc);
  Graph lcc;
  if (!comps.sizes.empty()) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (comps.component_of[v] == comps.largest) {
        mapping[v] = static_cast<NodeId>(lcc.AddNode());
      }
    }
    for (const Edge& e : g.edges()) {
      if (mapping[e.u] != kNotInLcc && mapping[e.v] != kNotInLcc) {
        lcc.AddEdge(mapping[e.u], mapping[e.v]);
      }
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(mapping);
  return lcc;
}

Graph PreprocessDataset(const Graph& g) {
  return LargestConnectedComponent(g.Simplified());
}

}  // namespace sgr
