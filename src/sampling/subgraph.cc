#include "sampling/subgraph.h"

#include <cstdint>

namespace sgr {

Subgraph BuildSubgraph(const SamplingList& list) {
  Subgraph sub;
  sub.to_original = list.SeenIds();
  sub.num_queried = list.NumQueried();
  sub.graph = Graph(list.NumSeen());
  // Each edge of E' exactly once, in row order: an edge between two
  // queried nodes appears in both rows and is added only from the lower
  // id's side (compact ids of queried nodes keep the original order); an
  // edge to a visible node appears in exactly one row.
  const std::vector<std::uint32_t>& compact = list.CompactNeighbors();
  for (std::uint32_t u = 0; u < list.NumQueried(); ++u) {
    for (std::size_t e = list.RowBegin(u); e < list.RowEnd(u); ++e) {
      const std::uint32_t w = compact[e];
      if (list.IsQueried(w) && !(u < w)) continue;  // added from w's row
      sub.graph.AddEdge(u, w);
    }
  }
  return sub;
}

}  // namespace sgr
