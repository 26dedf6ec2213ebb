#include "graph/csr_graph.h"

#include <algorithm>
#include <cassert>

namespace sgr {

CsrGraph::CsrGraph(const Graph& g) {
  const std::size_t n = g.NumNodes();
  offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + g.Degree(v);
  }
  // Counting sort of the edges by their smaller endpoint a, keeping the
  // larger endpoint b.
  std::vector<std::size_t> first(n + 1, 0);
  for (const Edge& e : g.edges()) ++first[std::min(e.u, e.v) + 1];
  for (NodeId v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<NodeId> larger(g.NumEdges());
  std::vector<std::size_t> cursor(first.begin(), first.end() - 1);
  for (const Edge& e : g.edges()) {
    larger[cursor[std::min(e.u, e.v)]++] = std::max(e.u, e.v);
  }
  // A row is its smaller neighbors, then its loops (two entries each),
  // then its larger neighbors, each part ascending. Visiting a ascending
  // appends a to the rows of its larger neighbors and fills each row up
  // to its loops; then visiting b ascending appends b to the rows of the
  // smaller neighbors row b already holds.
  neighbors_.resize(offsets_[n]);
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
  for (NodeId a = 0; a < n; ++a) {
    for (std::size_t i = first[a]; i < first[a + 1]; ++i) {
      neighbors_[cursor[larger[i]]++] = a;
      if (larger[i] == a) neighbors_[cursor[a]++] = a;
    }
  }
  for (NodeId b = 0; b < n; ++b) {
    for (std::size_t i = offsets_[b]; i < cursor[b]; ++i) {
      const NodeId a = neighbors_[i];
      if (a < b) neighbors_[cursor[a]++] = b;
    }
  }
  FinalizeFromSortedArrays();
}

CsrGraph CsrGraph::FromAdjacency(std::vector<std::size_t> offsets,
                                 std::vector<NodeId> neighbors) {
  CsrGraph csr;
  csr.offsets_ = std::move(offsets);
  csr.neighbors_ = std::move(neighbors);
  assert(!csr.offsets_.empty());
  assert(csr.offsets_.back() == csr.neighbors_.size());
  const std::size_t n = csr.NumNodes();
  for (NodeId v = 0; v < n; ++v) {
    auto* first = csr.neighbors_.data() + csr.offsets_[v];
    auto* last = csr.neighbors_.data() + csr.offsets_[v + 1];
    if (!std::is_sorted(first, last)) std::sort(first, last);
  }
  csr.FinalizeFromSortedArrays();
  return csr;
}

void CsrGraph::FinalizeFromSortedArrays() {
  max_degree_ = 0;
  is_simple_ = true;
  const std::size_t n = NumNodes();
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t d = Degree(v);
    max_degree_ = std::max(max_degree_, d);
    const NeighborSpan nbrs = neighbors(v);
    for (std::size_t i = 0; i < d && is_simple_; ++i) {
      if (nbrs[i] == v || (i + 1 < d && nbrs[i] == nbrs[i + 1])) {
        is_simple_ = false;
      }
    }
  }
}

double CsrGraph::AverageDegree() const {
  if (NumNodes() == 0) return 0.0;
  return static_cast<double>(TotalDegree()) /
         static_cast<double>(NumNodes());
}

std::size_t CsrGraph::CountEdges(NodeId u, NodeId v) const {
  const NodeId probe_from = Degree(u) <= Degree(v) ? u : v;
  const NodeId target = (probe_from == u) ? v : u;
  const NeighborSpan nbrs = neighbors(probe_from);
  const auto range = std::equal_range(nbrs.begin(), nbrs.end(), target);
  return static_cast<std::size_t>(range.second - range.first);
}

}  // namespace sgr
