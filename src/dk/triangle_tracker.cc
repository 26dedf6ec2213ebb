#include "dk/triangle_tracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace sgr {

namespace {

std::vector<std::uint32_t> FrozenDegrees(const Graph& g) {
  std::vector<std::uint32_t> degree(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    degree[v] = static_cast<std::uint32_t>(g.Degree(v));
  }
  return degree;
}

}  // namespace

TriangleTracker::Slot* TriangleTracker::Slab::Take() {
  if (free != nullptr) {
    Slot* slot = free;
    free = slot->next_free;
    return slot;
  }
  return next != end ? next++ : nullptr;
}

bool TriangleTracker::Slab::Owns(const void* p) const {
  const std::less<const void*> before;
  return !before(p, begin) && before(p, end);
}

void TriangleTracker::Slab::Give(void* p) {
  Slot* slot = static_cast<Slot*>(p);
  slot->next_free = free;
  free = slot;
}

TriangleTracker::NodeArena::NodeArena(
    const std::vector<std::uint32_t>& degree)
    : slabs_(degree.size()) {
  std::size_t total = 0;
  for (const std::uint32_t d : degree) total += d;
  slots_.resize(total);
  Slot* at = slots_.data();
  for (std::size_t v = 0; v < degree.size(); ++v) {
    slabs_[v].begin = slabs_[v].next = at;
    at += degree[v];
    slabs_[v].end = at;
  }
}

template <typename Visit>
std::int64_t TriangleTracker::ForEachCommonNeighbor(NodeId u, NodeId v,
                                                    Visit visit) const {
  // Iterate the endpoint with the smaller distinct-neighbor map.
  const NodeId a = adj_[u].size() <= adj_[v].size() ? u : v;
  const NodeId b = (a == u) ? v : u;
  std::int64_t common = 0;
  // The integer counts t_ and class_t_ come out the same in any order,
  // but BumpClassTriangles adds to the double objective_num_ in map
  // order. The map's insertion history fixes that order, so runs repeat;
  // a container with another order may move the objective's low bits.
  // sgr-check: allow(unordered-iter) integer counts commute; objective_num_ sums in map order
  for (const auto& [w, a_aw] : adj_[a]) {
    if (w == u || w == v) continue;
    auto it = adj_[b].find(w);
    if (it == adj_[b].end()) continue;
    const std::int64_t weight =
        static_cast<std::int64_t>(a_aw) * it->second;
    common += weight;
    visit(w, weight);
  }
  return common;
}

TriangleTracker::TriangleTracker(const Graph& g,
                                 std::vector<double> target_clustering)
    : degree_(FrozenDegrees(g)),
      arena_(degree_),
      t_(g.NumNodes(), 0),
      target_(std::move(target_clustering)) {
  adj_.reserve(g.NumNodes());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    adj_.emplace_back(SlabAllocator<NeighborMap::value_type>(arena_.slab(v)));
  }
  // Edge-order build; each edge first counts the triangles it closes with
  // the edges before it, so t_ ends as the graph's per-node triangles.
  for (const Edge& e : g.edges()) {
    if (e.u == e.v) {
      adj_[e.u][e.u] += 2;  // A_vv = twice the loop count
      continue;
    }
    const std::int64_t common = ForEachCommonNeighbor(
        e.u, e.v, [this](NodeId w, std::int64_t weight) { t_[w] += weight; });
    t_[e.u] += common;
    t_[e.v] += common;
    ++adj_[e.u][e.v];
    ++adj_[e.v][e.u];
  }
  const std::uint32_t k_max =
      degree_.empty() ? 0 : *std::max_element(degree_.begin(), degree_.end());
  const std::size_t classes =
      std::max<std::size_t>(k_max + 1, target_.size());
  target_.resize(classes, 0.0);
  class_n_.assign(classes, 0);
  class_t_.assign(classes, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ++class_n_[degree_[v]];
    class_t_[degree_[v]] += t_[v];
  }
  for (double c : target_) target_mass_ += c;
  RecomputeObjective();
}

double TriangleTracker::ClassTerm(std::uint32_t k) const {
  return std::abs(PresentClustering(k) - target_[k]);
}

double TriangleTracker::PresentClustering(std::uint32_t k) const {
  if (k < 2 || k >= class_n_.size() || class_n_[k] == 0) return 0.0;
  return 2.0 * static_cast<double>(class_t_[k]) /
         (static_cast<double>(k) * static_cast<double>(k - 1) *
          static_cast<double>(class_n_[k]));
}

void TriangleTracker::RecomputeObjective() {
  objective_num_ = 0.0;
  for (std::uint32_t k = 0; k < target_.size(); ++k) {
    objective_num_ += ClassTerm(k);
  }
}

void TriangleTracker::BumpClassTriangles(std::uint32_t k,
                                         std::int64_t delta) {
  if (delta == 0) return;
  objective_num_ -= ClassTerm(k);
  class_t_[k] += delta;
  objective_num_ += ClassTerm(k);
}

std::int64_t TriangleTracker::Multiplicity(NodeId u, NodeId v) const {
  const auto& map = adj_[u];
  auto it = map.find(v);
  return it == map.end() ? 0 : it->second;
}

void TriangleTracker::ApplyTriangleDelta(NodeId u, NodeId v,
                                         std::int64_t sign) {
  const std::int64_t common =
      ForEachCommonNeighbor(u, v, [this, sign](NodeId w, std::int64_t weight) {
        t_[w] += sign * weight;
        BumpClassTriangles(degree_[w], sign * weight);
      });
  t_[u] += sign * common;
  BumpClassTriangles(degree_[u], sign * common);
  t_[v] += sign * common;
  BumpClassTriangles(degree_[v], sign * common);
}

void TriangleTracker::RemoveEdge(NodeId u, NodeId v) {
  if (u == v) {
    auto it = adj_[u].find(u);
    assert(it != adj_[u].end() && it->second >= 2);
    it->second -= 2;
    if (it->second == 0) adj_[u].erase(it);
    return;
  }
  ApplyTriangleDelta(u, v, -1);
  auto drop = [this](NodeId from, NodeId to) {
    auto it = adj_[from].find(to);
    assert(it != adj_[from].end() && it->second >= 1);
    if (--it->second == 0) adj_[from].erase(it);
  };
  drop(u, v);
  drop(v, u);
}

void TriangleTracker::AddEdge(NodeId u, NodeId v) {
  if (u == v) {
    adj_[u][u] += 2;
    return;
  }
  ApplyTriangleDelta(u, v, +1);
  ++adj_[u][v];
  ++adj_[v][u];
}

}  // namespace sgr
