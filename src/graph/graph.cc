#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace sgr {

NodeId Graph::AddNode() {
  degree_.push_back(0);
  return static_cast<NodeId>(degree_.size() - 1);
}

void Graph::AddNodes(std::size_t count) {
  degree_.resize(degree_.size() + count, 0);
}

EdgeId Graph::AddEdge(NodeId u, NodeId v) {
  assert(u < NumNodes() && v < NumNodes());
  edges_.push_back(Edge{u, v});
  ++degree_[u];
  ++degree_[v];
  return edges_.size() - 1;
}

void Graph::ReplaceEdge(EdgeId e, NodeId new_u, NodeId new_v) {
  assert(e < edges_.size());
  assert(new_u < NumNodes() && new_v < NumNodes());
  const Edge old = edges_[e];
  --degree_[old.u];
  --degree_[old.v];
  edges_[e] = Edge{new_u, new_v};
  ++degree_[new_u];
  ++degree_[new_v];
}

std::size_t Graph::MaxDegree() const {
  return degree_.empty() ? 0 : *std::max_element(degree_.begin(),
                                                 degree_.end());
}

double Graph::AverageDegree() const {
  if (NumNodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(NumEdges()) /
         static_cast<double>(NumNodes());
}

}  // namespace sgr
