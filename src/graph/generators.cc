#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

namespace sgr {

Graph GenerateErdosRenyiGnm(std::size_t num_nodes, std::size_t num_edges,
                            Rng& rng) {
  assert(num_nodes >= 2 || num_edges == 0);
  const std::size_t max_edges = num_nodes * (num_nodes - 1) / 2;
  assert(num_edges <= max_edges);
  (void)max_edges;
  Graph g(num_nodes);
  std::set<std::pair<NodeId, NodeId>> chosen;
  while (chosen.size() < num_edges) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(num_nodes));
    NodeId v = static_cast<NodeId>(rng.NextIndex(num_nodes));
    if (u == v) continue;
    auto key = std::minmax(u, v);
    if (chosen.insert({key.first, key.second}).second) {
      g.AddEdge(key.first, key.second);
    }
  }
  return g;
}

namespace {

/// Shared growth loop for Barabási–Albert and Holme–Kim. `repeated_nodes`
/// holds one entry per edge endpoint, so uniform draws from it implement
/// preferential attachment.
Graph GrowPreferential(std::size_t num_nodes, std::size_t edges_per_node,
                       double triad_probability, Rng& rng) {
  assert(edges_per_node >= 1);
  assert(num_nodes > edges_per_node);
  Graph g(num_nodes);
  std::vector<NodeId> repeated_nodes;
  repeated_nodes.reserve(2 * num_nodes * edges_per_node);
  // Neighbor lists for the triad step's draws. Insertion order keeps the
  // draws, and so every generated graph, fixed.
  std::vector<std::vector<NodeId>> adjacency(num_nodes);
  const auto link = [&](NodeId u, NodeId v) {
    g.AddEdge(u, v);
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
    repeated_nodes.push_back(u);
    repeated_nodes.push_back(v);
  };

  // Seed: a clique on the first (edges_per_node + 1) nodes guarantees every
  // new node can find `edges_per_node` distinct targets.
  const std::size_t seed_size = edges_per_node + 1;
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = u + 1; v < seed_size; ++v) link(u, v);
  }

  for (NodeId source = static_cast<NodeId>(seed_size); source < num_nodes;
       ++source) {
    std::set<NodeId> targets;
    while (targets.size() < edges_per_node) {
      NodeId target = repeated_nodes[rng.NextIndex(repeated_nodes.size())];
      if (target == source || targets.count(target) > 0) continue;
      targets.insert(target);
      link(source, target);

      // Holme–Kim triad closure: with probability `triad_probability`, also
      // link `source` to a random neighbor of `target` (skipping choices
      // that would create loops or parallel edges).
      if (triad_probability > 0.0 && rng.NextBernoulli(triad_probability) &&
          targets.size() < edges_per_node) {
        const std::vector<NodeId>& nbrs = adjacency[target];
        NodeId candidate = nbrs[rng.NextIndex(nbrs.size())];
        if (candidate != source && targets.count(candidate) == 0) {
          targets.insert(candidate);
          link(source, candidate);
        }
      }
    }
  }
  return g;
}

}  // namespace

Graph GenerateBarabasiAlbert(std::size_t num_nodes,
                             std::size_t edges_per_node, Rng& rng) {
  return GrowPreferential(num_nodes, edges_per_node, 0.0, rng);
}

Graph GeneratePowerlawCluster(std::size_t num_nodes,
                              std::size_t edges_per_node,
                              double triad_probability, Rng& rng) {
  return GrowPreferential(num_nodes, edges_per_node, triad_probability, rng);
}

Graph GenerateSocialGraph(std::size_t num_nodes, std::size_t edges_per_node,
                          double triad_probability, double fringe_fraction,
                          Rng& rng) {
  assert(fringe_fraction >= 0.0 && fringe_fraction < 1.0);
  const auto core_nodes = static_cast<std::size_t>(
      static_cast<double>(num_nodes) * (1.0 - fringe_fraction));
  assert(core_nodes > edges_per_node);
  Graph g = GrowPreferential(core_nodes, edges_per_node, triad_probability,
                             rng);
  g.AddNodes(num_nodes - core_nodes);

  // Preferential-attachment pool over edge endpoints of the growing graph.
  std::vector<NodeId> repeated;
  repeated.reserve(2 * g.NumEdges() + 4 * (num_nodes - core_nodes));
  for (const Edge& e : g.edges()) {
    repeated.push_back(e.u);
    repeated.push_back(e.v);
  }
  for (NodeId fringe = static_cast<NodeId>(core_nodes); fringe < num_nodes;
       ++fringe) {
    // Mostly degree 1-2: 1 + Geometric(0.6) capped at 3.
    const std::size_t degree =
        1 + std::min<std::size_t>(rng.NextGeometric(0.6), 2);
    std::set<NodeId> targets;
    while (targets.size() < degree) {
      const NodeId target = repeated[rng.NextIndex(repeated.size())];
      if (target == fringe || targets.count(target) > 0) continue;
      targets.insert(target);
      g.AddEdge(fringe, target);
      repeated.push_back(fringe);
      repeated.push_back(target);
    }
  }
  return g;
}

Graph GenerateWattsStrogatz(std::size_t num_nodes, std::size_t k_neighbors,
                            double rewire_probability, Rng& rng) {
  assert(k_neighbors % 2 == 0 && k_neighbors >= 2);
  assert(num_nodes > k_neighbors);
  Graph g(num_nodes);
  std::set<std::pair<NodeId, NodeId>> present;
  auto add = [&](NodeId u, NodeId v) {
    auto key = std::minmax(u, v);
    if (u != v && present.insert({key.first, key.second}).second) {
      g.AddEdge(key.first, key.second);
      return true;
    }
    return false;
  };
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (std::size_t hop = 1; hop <= k_neighbors / 2; ++hop) {
      NodeId v = static_cast<NodeId>((u + hop) % num_nodes);
      if (rng.NextBernoulli(rewire_probability)) {
        // Rewire to a uniformly random non-neighbor; fall back to the
        // lattice edge if the node is saturated.
        bool placed = false;
        for (int attempt = 0; attempt < 32 && !placed; ++attempt) {
          NodeId w = static_cast<NodeId>(rng.NextIndex(num_nodes));
          placed = add(u, w);
        }
        if (!placed) add(u, v);
      } else {
        add(u, v);
      }
    }
  }
  return g;
}

Graph GenerateCommunityGraph(std::size_t num_nodes,
                             std::size_t num_communities,
                             std::size_t edges_per_node,
                             double triad_probability,
                             std::size_t bridge_edges, Rng& rng) {
  assert(num_communities >= 1);
  const std::size_t base = num_nodes / num_communities;
  assert(base > edges_per_node);
  Graph g;
  std::set<std::pair<NodeId, NodeId>> present;
  std::vector<std::pair<NodeId, NodeId>> community_ranges;
  for (std::size_t c = 0; c < num_communities; ++c) {
    const std::size_t size =
        (c + 1 == num_communities) ? num_nodes - base * (num_communities - 1)
                                   : base;
    Graph community =
        GeneratePowerlawCluster(size, edges_per_node, triad_probability, rng);
    const NodeId offset = static_cast<NodeId>(g.NumNodes());
    g.AddNodes(size);
    for (const Edge& e : community.edges()) {
      const NodeId u = offset + e.u;
      const NodeId v = offset + e.v;
      g.AddEdge(u, v);
      present.insert({std::min(u, v), std::max(u, v)});
    }
    community_ranges.push_back(
        {offset, static_cast<NodeId>(offset + size - 1)});
  }
  for (std::size_t b = 0; b < bridge_edges; ++b) {
    const std::size_t c1 = rng.NextIndex(num_communities);
    std::size_t c2 = rng.NextIndex(num_communities);
    if (num_communities > 1) {
      while (c2 == c1) c2 = rng.NextIndex(num_communities);
    }
    const auto [lo1, hi1] = community_ranges[c1];
    const auto [lo2, hi2] = community_ranges[c2];
    NodeId u = static_cast<NodeId>(lo1 + rng.NextIndex(hi1 - lo1 + 1));
    NodeId v = static_cast<NodeId>(lo2 + rng.NextIndex(hi2 - lo2 + 1));
    if (u != v && present.insert({std::min(u, v), std::max(u, v)}).second) {
      g.AddEdge(u, v);
    }
  }
  return g;
}

Graph GenerateComplete(std::size_t num_nodes) {
  Graph g(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = u + 1; v < num_nodes; ++v) g.AddEdge(u, v);
  }
  return g;
}

Graph GenerateCycle(std::size_t num_nodes) {
  assert(num_nodes >= 3);
  Graph g(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    g.AddEdge(u, static_cast<NodeId>((u + 1) % num_nodes));
  }
  return g;
}

Graph GenerateStar(std::size_t num_nodes) {
  assert(num_nodes >= 2);
  Graph g(num_nodes);
  for (NodeId v = 1; v < num_nodes; ++v) g.AddEdge(0, v);
  return g;
}

Graph GeneratePath(std::size_t num_nodes) {
  assert(num_nodes >= 2);
  Graph g(num_nodes);
  for (NodeId u = 0; u + 1 < num_nodes; ++u) {
    g.AddEdge(u, static_cast<NodeId>(u + 1));
  }
  return g;
}

}  // namespace sgr
