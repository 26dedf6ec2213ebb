#include "graph/components.h"

#include <algorithm>

namespace sgr {

ComponentsResult ConnectedComponents(const CsrGraph& g) {
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  const std::size_t n = g.NumNodes();
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
      for (NodeId w : g.neighbors(queue[head])) {
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

std::size_t CountComponents(const CsrGraph& g) {
  return ConnectedComponents(g).sizes.size();
}

bool IsConnected(const CsrGraph& g) {
  return g.NumNodes() > 0 && CountComponents(g) == 1;
}

CsrGraph PreprocessDataset(CsrGraph g, std::size_t* self_loops,
                           std::size_t* parallel_edges) {
  const std::size_t n = g.NumNodes();
  std::size_t loops = 0;
  std::size_t copies = 0;  // surplus parallel entries, seen from both ends
  if (n > 0) {
    // Loops and parallel copies connect nothing new, so the components of
    // the raw graph are those of its simplification.
    ComponentsResult comps = ConnectedComponents(g);
    constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
    std::vector<std::size_t>& new_id = comps.component_of;
    std::size_t kept = 0;
    for (std::size_t& c : new_id) c = c == comps.largest ? kept++ : kDropped;

    // Writes trail reads: a run of equal entries is read before at most
    // one entry is written, and offsets[new_id[v] + 1] (new_id[v] <= v)
    // is written only after offsets[v + 1] has been read.
    std::vector<std::size_t>& offsets = g.offsets_;
    std::vector<NodeId>& neighbors = g.neighbors_;
    std::size_t read = 0;
    std::size_t write = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t end = offsets[v + 1];
      const bool keep = new_id[v] != kDropped;
      while (read < end) {
        const NodeId w = neighbors[read];
        std::size_t run = 1;
        while (read + run < end && neighbors[read + run] == w) ++run;
        read += run;
        if (w == v) {
          loops += run / 2;  // a loop contributes two entries
          continue;
        }
        copies += run - 1;
        if (keep) neighbors[write++] = static_cast<NodeId>(new_id[w]);
      }
      if (keep) offsets[new_id[v] + 1] = write;
    }
    offsets.resize(kept + 1);
    offsets.shrink_to_fit();
    neighbors.resize(write);
    neighbors.shrink_to_fit();
    g.FinalizeFromSortedArrays();
  }
  if (self_loops != nullptr) *self_loops = loops;
  if (parallel_edges != nullptr) *parallel_edges = copies / 2;
  return g;
}

}  // namespace sgr
