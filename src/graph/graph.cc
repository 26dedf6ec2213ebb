#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

namespace sgr {

NodeId Graph::AddNode() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

void Graph::AddNodes(std::size_t count) {
  adjacency_.resize(adjacency_.size() + count);
}

EdgeId Graph::AddEdge(NodeId u, NodeId v) {
  assert(u < NumNodes() && v < NumNodes());
  edges_.push_back(Edge{u, v});
  Attach(u, v);
  return edges_.size() - 1;
}

void Graph::ReplaceEdge(EdgeId e, NodeId new_u, NodeId new_v) {
  assert(e < edges_.size());
  assert(new_u < NumNodes() && new_v < NumNodes());
  const Edge old = edges_[e];
  Detach(old.u, old.v);
  edges_[e] = Edge{new_u, new_v};
  Attach(new_u, new_v);
}

std::size_t Graph::MaxDegree() const {
  std::size_t best = 0;
  for (const auto& nbrs : adjacency_) best = std::max(best, nbrs.size());
  return best;
}

double Graph::AverageDegree() const {
  if (NumNodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(NumEdges()) /
         static_cast<double>(NumNodes());
}

std::size_t Graph::CountEdges(NodeId u, NodeId v) const {
  const std::vector<NodeId>& smaller =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                   : adjacency_[v];
  const NodeId other = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return static_cast<std::size_t>(
      std::count(smaller.begin(), smaller.end(), other));
}

bool Graph::IsSimple() const {
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : edges_) {
    if (e.u == e.v) return false;
    auto key = std::minmax(e.u, e.v);
    if (!seen.insert({key.first, key.second}).second) return false;
  }
  return true;
}

std::size_t Graph::TotalDegree() const {
  std::size_t total = 0;
  for (const auto& nbrs : adjacency_) total += nbrs.size();
  return total;
}

void Graph::Attach(NodeId u, NodeId v) {
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
}

void Graph::Detach(NodeId u, NodeId v) {
  auto remove_one = [this](NodeId from, NodeId target) {
    auto& nbrs = adjacency_[from];
    auto it = std::find(nbrs.begin(), nbrs.end(), target);
    assert(it != nbrs.end() && "edge endpoint missing from adjacency");
    *it = nbrs.back();
    nbrs.pop_back();
  };
  remove_one(u, v);
  remove_one(v, u);
}

}  // namespace sgr
