#include "analysis/property_tracker.h"

#include <array>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "graph/components.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// A degree-preserving 2-swap in the rewiring engines' convention:
/// remove (i, j) and (a, b), add (i, b) and (a, j).
struct Swap {
  EdgeId e1 = 0;
  EdgeId e2 = 0;
  NodeId i = 0;
  NodeId j = 0;
  NodeId a = 0;
  NodeId b = 0;
};

/// Draws one candidate swap the way the rewirer does: two distinct edge
/// ids, then a uniformly random endpoint orientation with deg(i) ==
/// deg(a). Returns nullopt when the draw yields no degree-matched
/// orientation (or a no-op swap, which the engines also filter).
std::optional<Swap> DrawSwap(const Graph& g, Rng& rng) {
  if (g.NumEdges() < 2) return std::nullopt;
  const EdgeId e1 = rng.NextIndex(g.NumEdges());
  const EdgeId e2 = rng.NextIndex(g.NumEdges());
  if (e1 == e2) return std::nullopt;
  const Edge first = g.edge(e1);
  const Edge second = g.edge(e2);
  std::array<Swap, 4> options{};
  std::size_t count = 0;
  for (int flip1 = 0; flip1 < 2; ++flip1) {
    for (int flip2 = 0; flip2 < 2; ++flip2) {
      Swap swap;
      swap.e1 = e1;
      swap.e2 = e2;
      swap.i = flip1 != 0 ? first.v : first.u;
      swap.j = flip1 != 0 ? first.u : first.v;
      swap.a = flip2 != 0 ? second.v : second.u;
      swap.b = flip2 != 0 ? second.u : second.v;
      if (g.Degree(swap.i) != g.Degree(swap.a)) continue;
      options[count++] = swap;
    }
  }
  if (count == 0) return std::nullopt;
  const Swap swap = options[rng.NextIndex(count)];
  if (swap.i == swap.a || swap.j == swap.b) return std::nullopt;
  return swap;
}

/// Mirrors one committed swap into both the graph and the tracker.
void CommitSwap(Graph& g, PropertyTracker& tracker, const Swap& swap) {
  g.ReplaceEdge(swap.e1, swap.i, swap.b);
  g.ReplaceEdge(swap.e2, swap.a, swap.j);
  tracker.ApplySwap(swap.i, swap.j, swap.a, swap.b);
}

void ExpectVectorsEqual(const std::vector<double>& expected,
                        const std::vector<double>& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what << " size";
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(expected[k], actual[k], 1e-12)
        << what << "[" << k << "]";
  }
}

/// The full cross-validation: every tracked quantity against the
/// from-scratch analyzers on the current graph.
void ExpectMatchesFromScratch(const Graph& g,
                              const PropertyTracker& tracker,
                              const std::string& where) {
  SCOPED_TRACE(where);
  const GraphProperties snapshot = tracker.Snapshot();
  EXPECT_EQ(g.NumNodes(), snapshot.num_nodes);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.AverageDegree(), snapshot.average_degree);
  ExpectVectorsEqual(DegreeDistribution(csr), snapshot.degree_dist, "P(k)");
  ExpectVectorsEqual(NeighborConnectivity(csr),
                     snapshot.neighbor_connectivity, "knn(k)");
  EXPECT_NEAR(NetworkClusteringCoefficient(csr), snapshot.clustering_global,
              1e-12);
  EXPECT_NEAR(snapshot.clustering_global, tracker.ClusteringGlobal(),
              1e-12);
  ExpectVectorsEqual(ExtractDegreeDependentClustering(g),
                     snapshot.clustering_by_degree, "c(k)");
  ExpectVectorsEqual(EdgewiseSharedPartners(csr), snapshot.esp_dist, "P(s)");
  const ComponentsResult components = ConnectedComponents(g);
  EXPECT_EQ(components.sizes.size(), tracker.NumComponents());
  EXPECT_EQ(components.sizes.empty()
                ? 0u
                : components.sizes[components.largest],
            tracker.LccSize());
}

/// Runs >= `min_swaps` committed swaps on `g`, cross-validating the
/// tracker against the from-scratch analyzers every `check_interval`
/// commits.
void RunSwapCrossValidation(Graph g, std::uint64_t seed,
                            std::size_t min_swaps,
                            std::size_t check_interval) {
  PropertyTracker tracker(g);
  ExpectMatchesFromScratch(g, tracker, "initial state");
  Rng rng(seed);
  std::size_t applied = 0;
  for (std::size_t draw = 0; draw < 80 * min_swaps && applied < min_swaps;
       ++draw) {
    const std::optional<Swap> swap = DrawSwap(g, rng);
    if (!swap) continue;
    CommitSwap(g, tracker, *swap);
    ++applied;
    if (applied % check_interval == 0) {
      ExpectMatchesFromScratch(g, tracker,
                               "after " + std::to_string(applied) +
                                   " swaps");
      if (::testing::Test::HasFailure()) return;
    }
  }
  ASSERT_GE(applied, min_swaps) << "swap sampling starved";
  ExpectMatchesFromScratch(g, tracker, "final state");
}

/// A heavy-tailed clustered graph plus handmade self-loops and parallel
/// edges: the multigraph regime the dK construction and rewiring phases
/// actually produce.
Graph MakeMultigraphFixture(std::uint64_t seed) {
  Rng rng(seed);
  Graph g = GeneratePowerlawCluster(90, 3, 0.5, rng);
  g.AddEdge(3, 3);
  g.AddEdge(7, 7);
  g.AddEdge(7, 7);
  const Edge duplicated = g.edge(5);
  g.AddEdge(duplicated.u, duplicated.v);
  const Edge tripled = g.edge(11);
  g.AddEdge(tripled.u, tripled.v);
  g.AddEdge(tripled.u, tripled.v);
  return g;
}

TEST(PropertyTrackerTest, SnapshotMatchesAnalyzersOnFixtures) {
  Rng rng(91);
  const Graph fixtures[] = {
      GenerateComplete(8),       GenerateCycle(12),
      GenerateStar(9),           GeneratePath(7),
      GeneratePowerlawCluster(80, 3, 0.6, rng),
      MakeMultigraphFixture(17),
  };
  for (std::size_t f = 0; f < std::size(fixtures); ++f) {
    const PropertyTracker tracker(fixtures[f]);
    ExpectMatchesFromScratch(fixtures[f], tracker,
                             "fixture " + std::to_string(f));
  }
}

TEST(PropertyTrackerTest, SnapshotMatchesComputePropertiesLocally) {
  Rng rng(301);
  const Graph g = GeneratePowerlawCluster(70, 3, 0.5, rng);
  const PropertyTracker tracker(g);
  const GraphProperties snapshot = tracker.Snapshot();
  PropertyOptions options;
  options.max_path_sources = 4;  // globals are not under test
  const GraphProperties expected = ComputeProperties(CsrGraph(g), options);
  EXPECT_EQ(expected.num_nodes, snapshot.num_nodes);
  EXPECT_EQ(expected.average_degree, snapshot.average_degree);
  ExpectVectorsEqual(expected.degree_dist, snapshot.degree_dist, "P(k)");
  ExpectVectorsEqual(expected.neighbor_connectivity,
                     snapshot.neighbor_connectivity, "knn(k)");
  EXPECT_NEAR(expected.clustering_global, snapshot.clustering_global,
              1e-12);
  ExpectVectorsEqual(expected.clustering_by_degree,
                     snapshot.clustering_by_degree, "c(k)");
  ExpectVectorsEqual(expected.esp_dist, snapshot.esp_dist, "P(s)");
}

TEST(PropertyTrackerTest, CrossValidatesUnderSwapsOnErdosRenyi) {
  Rng rng(1001);
  Graph g = GenerateErdosRenyiGnm(120, 420, rng);
  RunSwapCrossValidation(std::move(g), /*seed=*/0xE21,
                         /*min_swaps=*/520, /*check_interval=*/20);
}

TEST(PropertyTrackerTest, CrossValidatesUnderSwapsOnBarabasiAlbert) {
  Rng rng(1002);
  Graph g = GenerateBarabasiAlbert(140, 3, rng);
  RunSwapCrossValidation(std::move(g), /*seed=*/0xBA2,
                         /*min_swaps=*/520, /*check_interval=*/20);
}

TEST(PropertyTrackerTest, CrossValidatesUnderSwapsOnMultigraph) {
  RunSwapCrossValidation(MakeMultigraphFixture(23), /*seed=*/0x3D1,
                         /*min_swaps=*/520, /*check_interval=*/20);
}

TEST(PropertyTrackerTest, ApplyUndoRoundTripRestoresState) {
  Graph g = MakeMultigraphFixture(31);
  PropertyTracker tracker(g);
  const GraphProperties before = tracker.Snapshot();
  const std::size_t components_before = tracker.NumComponents();
  const std::size_t lcc_before = tracker.LccSize();

  Rng rng(0x0DD);
  std::size_t round_trips = 0;
  while (round_trips < 50) {
    const std::optional<Swap> swap = DrawSwap(g, rng);
    if (!swap) continue;
    // Apply on the tracker only (the graph must stay put so the next
    // round trip draws from the same edge list), then undo: the inverse
    // of ApplySwap(i, j, a, b) is ApplySwap(i, b, a, j).
    tracker.ApplySwap(swap->i, swap->j, swap->a, swap->b);
    tracker.ApplySwap(swap->i, swap->b, swap->a, swap->j);
    ++round_trips;
  }

  const GraphProperties after = tracker.Snapshot();
  EXPECT_EQ(before.num_nodes, after.num_nodes);
  EXPECT_EQ(before.average_degree, after.average_degree);
  EXPECT_EQ(before.degree_dist, after.degree_dist);
  EXPECT_EQ(before.neighbor_connectivity, after.neighbor_connectivity);
  EXPECT_EQ(before.clustering_global, after.clustering_global);
  EXPECT_EQ(before.clustering_by_degree, after.clustering_by_degree);
  EXPECT_EQ(before.esp_dist, after.esp_dist);
  EXPECT_EQ(components_before, tracker.NumComponents());
  EXPECT_EQ(lcc_before, tracker.LccSize());
  ExpectMatchesFromScratch(g, tracker, "after 50 apply/undo round trips");
}

TEST(PropertyTrackerTest, FromScratchModeAgreesWithIncremental) {
  Graph g = MakeMultigraphFixture(41);
  PropertyTracker incremental(g, PropertyAnalysisMode::kIncremental);
  PropertyTracker from_scratch(g, PropertyAnalysisMode::kFromScratch);
  EXPECT_EQ(PropertyAnalysisMode::kIncremental, incremental.mode());
  EXPECT_EQ(PropertyAnalysisMode::kFromScratch, from_scratch.mode());

  Rng rng(0xF5);
  std::size_t applied = 0;
  while (applied < 120) {
    const std::optional<Swap> swap = DrawSwap(g, rng);
    if (!swap) continue;
    CommitSwap(g, incremental, *swap);
    from_scratch.ApplySwap(swap->i, swap->j, swap->a, swap->b);
    ++applied;
  }

  const GraphProperties lazy = from_scratch.Snapshot();
  const GraphProperties tracked = incremental.Snapshot();
  EXPECT_EQ(lazy.num_nodes, tracked.num_nodes);
  EXPECT_EQ(lazy.average_degree, tracked.average_degree);
  ExpectVectorsEqual(lazy.degree_dist, tracked.degree_dist, "P(k)");
  ExpectVectorsEqual(lazy.neighbor_connectivity,
                     tracked.neighbor_connectivity, "knn(k)");
  EXPECT_NEAR(lazy.clustering_global, tracked.clustering_global, 1e-12);
  ExpectVectorsEqual(lazy.clustering_by_degree,
                     tracked.clustering_by_degree, "c(k)");
  ExpectVectorsEqual(lazy.esp_dist, tracked.esp_dist, "P(s)");
  EXPECT_EQ(from_scratch.NumComponents(), incremental.NumComponents());
  EXPECT_EQ(from_scratch.LccSize(), incremental.LccSize());
  EXPECT_NEAR(from_scratch.ClusteringGlobal(),
              incremental.ClusteringGlobal(), 1e-12);
}

TEST(PropertyTrackerTest, MultiplicityMatchesCountEdges) {
  Graph g = MakeMultigraphFixture(53);
  PropertyTracker tracker(g);
  Rng rng(0x517);
  std::size_t applied = 0;
  while (applied < 200) {
    const std::optional<Swap> swap = DrawSwap(g, rng);
    if (!swap) continue;
    CommitSwap(g, tracker, *swap);
    ++applied;
  }
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (const NodeId v : g.adjacency(u)) {
      EXPECT_EQ(static_cast<std::int64_t>(g.CountEdges(u, v)),
                tracker.Multiplicity(u, v))
          << "pair (" << u << ", " << v << ")";
    }
    // Spot-check some non-adjacent pairs too.
    const NodeId w = static_cast<NodeId>((u * 7 + 3) % g.NumNodes());
    EXPECT_EQ(static_cast<std::int64_t>(g.CountEdges(u, w)),
              tracker.Multiplicity(u, w))
        << "pair (" << u << ", " << w << ")";
  }
}

TEST(PropertyTrackerTest, MaterializeGraphReproducesTrackedMultigraph) {
  Graph g = MakeMultigraphFixture(67);
  PropertyTracker tracker(g);
  Rng rng(0x3A7);
  std::size_t applied = 0;
  while (applied < 150) {
    const std::optional<Swap> swap = DrawSwap(g, rng);
    if (!swap) continue;
    CommitSwap(g, tracker, *swap);
    ++applied;
  }
  const Graph materialized = tracker.MaterializeGraph();
  ASSERT_EQ(g.NumNodes(), materialized.NumNodes());
  ASSERT_EQ(g.NumEdges(), materialized.NumEdges());
  EXPECT_EQ(g.TotalDegree(), materialized.TotalDegree());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(g.Degree(v), materialized.Degree(v)) << "node " << v;
  }
  const CsrGraph csr(g);
  const CsrGraph materialized_csr(materialized);
  EXPECT_EQ(NetworkClusteringCoefficient(csr),
            NetworkClusteringCoefficient(materialized_csr));
  EXPECT_EQ(EdgewiseSharedPartners(csr),
            EdgewiseSharedPartners(materialized_csr));
}

TEST(PropertyTrackerTest, ComponentsTrackMergeAndSplit) {
  // Two disjoint triangles; the swap (0,1),(3,4) -> (0,4),(3,1) splices
  // them into one 6-cycle, and its inverse restores the two triangles.
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  PropertyTracker tracker(g);
  EXPECT_EQ(2u, tracker.NumComponents());
  EXPECT_EQ(3u, tracker.LccSize());

  tracker.ApplySwap(0, 1, 3, 4);
  g.ReplaceEdge(0, 0, 4);
  g.ReplaceEdge(3, 3, 1);
  EXPECT_EQ(1u, tracker.NumComponents());
  EXPECT_EQ(6u, tracker.LccSize());
  ExpectMatchesFromScratch(g, tracker, "after merge swap");

  tracker.ApplySwap(0, 4, 3, 1);
  g.ReplaceEdge(0, 0, 1);
  g.ReplaceEdge(3, 3, 4);
  EXPECT_EQ(2u, tracker.NumComponents());
  EXPECT_EQ(3u, tracker.LccSize());
  ExpectMatchesFromScratch(g, tracker, "after split swap");
}

TEST(PropertyTrackerTest, LoopCreatingSwapsStayConsistent) {
  // A swap with j == i creates a loop at i: removing (i, i) ... adding
  // (i, b) pairs are still degree-preserving. Exercise the loop
  // creation/destruction paths explicitly on a dense fixture.
  Graph g = GenerateComplete(6);
  g.AddEdge(0, 0);
  g.AddEdge(1, 2);
  PropertyTracker tracker(g);
  ExpectMatchesFromScratch(g, tracker, "initial");

  // Destroy the loop at 0 against edge (1, 2): remove (0,0), (1,2); add
  // (0,2), (1,0). Degrees: 0 loses 2 (loop) gains... (0,2) and (1,0)
  // both touch 0 -> net degree preserved for everyone.
  EXPECT_EQ(2, tracker.Multiplicity(0, 0));
  tracker.ApplySwap(0, 0, 1, 2);
  const EdgeId loop_edge = 15;   // AddEdge order: C(6,2)=15 edges first
  const EdgeId extra_edge = 16;
  g.ReplaceEdge(loop_edge, 0, 2);
  g.ReplaceEdge(extra_edge, 1, 0);
  EXPECT_EQ(0, tracker.Multiplicity(0, 0));
  ExpectMatchesFromScratch(g, tracker, "after loop-destroying swap");

  // And back: remove (0,2), (1,0); add (0,0), (1,2).
  tracker.ApplySwap(0, 2, 1, 0);
  g.ReplaceEdge(loop_edge, 0, 0);
  g.ReplaceEdge(extra_edge, 1, 2);
  EXPECT_EQ(2, tracker.Multiplicity(0, 0));
  ExpectMatchesFromScratch(g, tracker, "after loop-recreating swap");
}

}  // namespace
}  // namespace sgr
