#include <gtest/gtest.h>

#include <vector>

#include "analysis/extras.h"
#include "analysis/properties.h"
#include "exp/runner.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "sampling/sampling_list.h"

namespace sgr {
namespace {

CsrGraph TestSnapshot(std::uint64_t seed, std::size_t n = 300) {
  Rng rng(seed);
  return CsrGraph(GeneratePowerlawCluster(n, 3, 0.4, rng));
}

TEST(CompressedCsrTest, CompressPreservesEveryNeighborList) {
  const CsrGraph plain = TestSnapshot(1);
  CsrGraph packed = TestSnapshot(1);
  packed.Compress();
  ASSERT_TRUE(packed.compressed());
  ASSERT_EQ(packed.NumNodes(), plain.NumNodes());
  EXPECT_EQ(packed.NumEdges(), plain.NumEdges());
  EXPECT_EQ(packed.TotalDegree(), plain.TotalDegree());
  EXPECT_EQ(packed.MaxDegree(), plain.MaxDegree());
  NeighborCursor cursor(packed);
  for (NodeId v = 0; v < plain.NumNodes(); ++v) {
    ASSERT_EQ(packed.Degree(v), plain.Degree(v)) << "node " << v;
    const NeighborSpan reference = plain.neighbors(v);
    const NeighborSpan decoded = cursor.Load(v);
    ASSERT_EQ(decoded.size(), reference.size()) << "node " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(decoded[i], reference[i]) << "node " << v << " slot " << i;
    }
  }
}

TEST(CompressedCsrTest, CompressHandlesLoopsAndIsolatedNodes) {
  Graph g(5);
  g.AddEdge(0, 0);  // loop: appears twice in neighbors(0)
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);  // parallel edge: delta 0 in the varint stream
  g.AddEdge(3, 4);  // node 2 stays isolated (empty list)
  const CsrGraph plain(g);
  CsrGraph packed(g);
  packed.Compress();
  NeighborCursor cursor(packed);
  for (NodeId v = 0; v < 5; ++v) {
    const NeighborSpan reference = plain.neighbors(v);
    const NeighborSpan decoded = cursor.Load(v);
    ASSERT_EQ(decoded.size(), reference.size()) << "node " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(decoded[i], reference[i]);
    }
  }
  EXPECT_EQ(packed.Degree(0), 4u);   // loop counts twice
  EXPECT_EQ(packed.Degree(2), 0u);
  EXPECT_EQ(packed.NumEdges(), plain.NumEdges());
}

TEST(CompressedCsrTest, DecodeNeighborsMatchesCursor) {
  CsrGraph packed = TestSnapshot(2, 150);
  packed.Compress();
  std::vector<NodeId> scratch(packed.MaxDegree());
  NeighborCursor cursor(packed);
  for (NodeId v = 0; v < packed.NumNodes(); ++v) {
    packed.DecodeNeighbors(v, scratch.data());
    const NeighborSpan span = cursor.Load(v);
    for (std::size_t i = 0; i < span.size(); ++i) {
      ASSERT_EQ(scratch[i], span[i]);
    }
  }
}

TEST(CompressedCsrTest, CountEdgesAgreesWithUncompressed) {
  const CsrGraph plain = TestSnapshot(3, 200);
  CsrGraph packed = TestSnapshot(3, 200);
  packed.Compress();
  for (NodeId u = 0; u < 20; ++u) {
    for (NodeId v = 0; v < packed.NumNodes(); v += 17) {
      EXPECT_EQ(packed.CountEdges(u, v), plain.CountEdges(u, v))
          << u << "-" << v;
    }
  }
}

TEST(CompressedCsrTest, CompressionShrinksNeighborStorage) {
  const CsrGraph plain = TestSnapshot(4, 2000);
  CsrGraph packed = TestSnapshot(4, 2000);
  packed.Compress();
  EXPECT_LT(packed.NeighborStorageBytes(), plain.NeighborStorageBytes());
}

TEST(CompressedCsrTest, CursorOnUncompressedGraphIsZeroCopy) {
  const CsrGraph plain = TestSnapshot(5, 50);
  NeighborCursor cursor(plain);
  for (NodeId v = 0; v < plain.NumNodes(); ++v) {
    const NeighborSpan direct = plain.neighbors(v);
    const NeighborSpan loaded = cursor.Load(v);
    EXPECT_EQ(loaded.data(), direct.data());  // same backing storage
    EXPECT_EQ(loaded.size(), direct.size());
  }
}

TEST(CompressedCsrTest, OracleSpanSurvivesOneSubsequentQuery) {
  // The QueryOracle contract: a span stays valid until the second-next
  // Query. The compressed backend's two-slot decode ring must honor it.
  CsrGraph packed = TestSnapshot(6, 100);
  packed.Compress();
  const CsrGraph plain = TestSnapshot(6, 100);
  QueryOracle oracle(packed);
  for (NodeId v = 0; v + 1 < 40; ++v) {
    const NeighborSpan first = oracle.Query(v);
    const NeighborSpan second = oracle.Query(v + 1);
    // `first` must still read correctly after the interleaved query.
    const NeighborSpan ref_first = plain.neighbors(v);
    const NeighborSpan ref_second = plain.neighbors(v + 1);
    ASSERT_EQ(first.size(), ref_first.size());
    ASSERT_EQ(second.size(), ref_second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(first[i], ref_first[i]) << "stale span at node " << v;
    }
    for (std::size_t i = 0; i < second.size(); ++i) {
      ASSERT_EQ(second[i], ref_second[i]);
    }
  }
}

TEST(CompressedCsrTest, PropertiesAreIdenticalCompressedOrNot) {
  const CsrGraph plain = TestSnapshot(7, 400);
  CsrGraph packed = TestSnapshot(7, 400);
  packed.Compress();
  const GraphProperties a = ComputeProperties(plain);
  const GraphProperties b = ComputeProperties(packed);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_DOUBLE_EQ(a.average_degree, b.average_degree);
  EXPECT_DOUBLE_EQ(a.clustering_global, b.clustering_global);
  ASSERT_EQ(a.degree_dist.size(), b.degree_dist.size());
  for (std::size_t i = 0; i < a.degree_dist.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.degree_dist[i], b.degree_dist[i]);
  }
  ASSERT_EQ(a.neighbor_connectivity.size(), b.neighbor_connectivity.size());
  for (std::size_t i = 0; i < a.neighbor_connectivity.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.neighbor_connectivity[i],
                     b.neighbor_connectivity[i]);
  }
  ASSERT_EQ(a.esp_dist.size(), b.esp_dist.size());
  for (std::size_t i = 0; i < a.esp_dist.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.esp_dist[i], b.esp_dist[i]);
  }
}

TEST(CompressedCsrTest, ExperimentTrialsAreIdenticalCompressedOrNot) {
  // End-to-end determinism across the representation switch: the whole
  // crawl -> estimate -> restore -> evaluate pipeline must not observe
  // whether the snapshot is compressed.
  const CsrGraph plain = TestSnapshot(8, 350);
  CsrGraph packed = TestSnapshot(8, 350);
  packed.Compress();
  const GraphProperties props = ComputeProperties(plain);
  ExperimentConfig config;
  config.query_fraction = 0.1;
  config.restoration.rewire.rewiring_coefficient = 5.0;
  config.methods = {MethodKind::kBfs, MethodKind::kRandomWalk,
                    MethodKind::kProposed};
  const auto a = RunExperiment(plain, props, config, 42);
  const auto b = RunExperiment(packed, props, config, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].oracle_queries, b[i].oracle_queries);
    EXPECT_DOUBLE_EQ(a[i].sample_steps, b[i].sample_steps);
    EXPECT_DOUBLE_EQ(a[i].average_distance, b[i].average_distance);
    for (std::size_t p = 0; p < kNumProperties; ++p) {
      EXPECT_DOUBLE_EQ(a[i].distances[p], b[i].distances[p])
          << MethodName(a[i].kind) << " property " << p;
    }
    EXPECT_EQ(a[i].restoration.graph.NumEdges(),
              b[i].restoration.graph.NumEdges());
  }
}

TEST(CompressedCsrTest, ExtrasAndBetweennessAreIdenticalCompressedOrNot) {
  // Every analyzer reads through a NeighborCursor, so none may observe
  // whether the snapshot is compressed. A loop, a parallel edge and three
  // components exercise every path of the extras.
  Rng rng(9);
  Graph g = GeneratePowerlawCluster(200, 3, 0.4, rng);
  const auto a = static_cast<NodeId>(g.AddNode());
  const auto b = static_cast<NodeId>(g.AddNode());
  g.AddNode();  // isolated
  g.AddEdge(a, b);
  g.AddEdge(a, b);
  g.AddEdge(0, 0);
  const CsrGraph plain(g);
  CsrGraph packed(g);
  packed.Compress();
  EXPECT_EQ(DegreeAssortativity(plain), DegreeAssortativity(packed));
  EXPECT_EQ(CoreNumbers(plain), CoreNumbers(packed));
  EXPECT_EQ(Degeneracy(plain), Degeneracy(packed));
  EXPECT_EQ(PeripheryShare(plain), PeripheryShare(packed));
  EXPECT_EQ(ComponentSizes(plain), ComponentSizes(packed));
  EXPECT_EQ(ComponentSizes(packed).size(), 3u);

  // Brandes needs a connected simple graph.
  const CsrGraph connected = TestSnapshot(10, 150);
  CsrGraph connected_packed = TestSnapshot(10, 150);
  connected_packed.Compress();
  EXPECT_EQ(BetweennessCentrality(connected),
            BetweennessCentrality(connected_packed));
}

}  // namespace
}  // namespace sgr
