#include "graph/edge_list_reader.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace sgr {
namespace {

/// Writes `contents` to a fresh file under the gtest temp dir and returns
/// its path. Each call uses a distinct name, so fixtures never collide
/// across tests or repeated runs within one process.
std::string WriteFixture(const std::string& tag,
                         const std::string& contents) {
  static int counter = 0;
  const std::string path = ::testing::TempDir() + "sgr-ingest-" + tag +
                           "-" + std::to_string(counter++) + ".txt";
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  return path;
}

/// Independent reference for the ingester, written the naive way and
/// sharing no code with it: getline parsing, first-appearance ids through
/// a std::map, simplification through a std::set of edges, and a BFS
/// from every unvisited node in ascending order that keeps the first
/// largest component, renumbered in ascending-id order. Valid input only.
CsrGraph Reference(const std::string& path) {
  std::ifstream in(path);
  std::map<unsigned long long, NodeId> ids;
  std::set<std::pair<NodeId, NodeId>> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    unsigned long long raw[2];
    fields >> raw[0] >> raw[1];
    NodeId id[2];
    for (int k = 0; k < 2; ++k) {
      id[k] = ids.emplace(raw[k], static_cast<NodeId>(ids.size()))
                  .first->second;
    }
    if (id[0] != id[1]) edges.insert(std::minmax(id[0], id[1]));
  }
  const std::size_t n = ids.size();
  std::vector<std::set<NodeId>> adjacency(n);
  for (const auto& [u, v] : edges) {
    adjacency[u].insert(v);
    adjacency[v].insert(u);
  }
  std::vector<NodeId> best;
  std::vector<bool> seen(n, false);
  for (NodeId s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::vector<NodeId> component = {s};
    seen[s] = true;
    for (std::size_t head = 0; head < component.size(); ++head) {
      for (const NodeId w : adjacency[component[head]]) {
        if (!seen[w]) {
          seen[w] = true;
          component.push_back(w);
        }
      }
    }
    if (component.size() > best.size()) best = component;
  }
  std::sort(best.begin(), best.end());
  std::map<NodeId, NodeId> new_id;
  for (const NodeId v : best) new_id.emplace(v, new_id.size());
  std::vector<std::size_t> offsets = {0};
  std::vector<NodeId> neighbors;
  for (const NodeId v : best) {
    for (const NodeId w : adjacency[v]) neighbors.push_back(new_id.at(w));
    offsets.push_back(neighbors.size());
  }
  return CsrGraph::FromAdjacency(std::move(offsets), std::move(neighbors));
}

void ExpectSameCsr(const CsrGraph& a, const CsrGraph& b) {
  EXPECT_EQ(a.raw_offsets(), b.raw_offsets());
  EXPECT_EQ(a.raw_neighbors(), b.raw_neighbors());
}

TEST(EdgeListReaderTest, MatchesReferencePipelineOnBasicFile) {
  const std::string path = WriteFixture(
      "basic", "# a comment\n% another header style\n0 1\n1 2\n2 0\n2 3\n");
  const IngestResult result = IngestEdgeListFile(path);
  ExpectSameCsr(result.graph, Reference(path));
  EXPECT_EQ(result.stats.edge_lines, 4u);
  EXPECT_EQ(result.stats.raw_nodes, 4u);
  EXPECT_FALSE(result.stats.canonical);
  EXPECT_FALSE(result.from_cache);
}

TEST(EdgeListReaderTest, HandlesTabsCrlfAndTrailingBlankLines) {
  const std::string path = WriteFixture(
      "crlf", "0\t1\r\n1\t2\r\n2 0\r\n\r\n\n");
  const IngestResult result = IngestEdgeListFile(path);
  ExpectSameCsr(result.graph, Reference(path));
  EXPECT_EQ(result.graph.NumNodes(), 3u);
  EXPECT_EQ(result.graph.NumEdges(), 3u);
}

TEST(EdgeListReaderTest, LastLineWithoutNewlineIsParsed) {
  const std::string path = WriteFixture("noeol", "0 1\n1 2");
  const IngestResult result = IngestEdgeListFile(path);
  EXPECT_EQ(result.graph.NumNodes(), 3u);
  EXPECT_EQ(result.graph.NumEdges(), 2u);
  ExpectSameCsr(result.graph, Reference(path));
}

TEST(EdgeListReaderTest, DropsSelfLoopsAndCollapsesParallelEdges) {
  const std::string path = WriteFixture(
      "policy", "0 0\n0 1\n1 0\n0 1\n1 2\n2 2\n");
  const IngestResult result = IngestEdgeListFile(path);
  ExpectSameCsr(result.graph, Reference(path));
  EXPECT_EQ(result.stats.self_loops_dropped, 2u);
  // 0-1 appears three times (once reversed): two copies collapsed.
  EXPECT_EQ(result.stats.parallel_edges_collapsed, 2u);
  EXPECT_EQ(result.graph.NumEdges(), 2u);
}

TEST(EdgeListReaderTest, KeepsLargestComponentWithFirstMaxTiebreak) {
  // Two components of equal size 3: {0,1,2} and {3,4,5}. The reference
  // pipeline keeps the first-encountered maximum; the ingester must too.
  const std::string path = WriteFixture(
      "tie", "0 1\n1 2\n3 4\n4 5\n2 0\n5 3\n");
  const IngestResult result = IngestEdgeListFile(path);
  ExpectSameCsr(result.graph, Reference(path));
  EXPECT_EQ(result.graph.NumNodes(), 3u);
  EXPECT_EQ(result.stats.lcc_nodes, 3u);
  EXPECT_EQ(result.stats.lcc_edges, 3u);
}

TEST(EdgeListReaderTest, OutOfOrderAndSparseIdsRenumberLikeReference) {
  const std::string path = WriteFixture(
      "sparse", "900 100\n100 500\n500 900\n500 42\n");
  const IngestResult result = IngestEdgeListFile(path);
  ExpectSameCsr(result.graph, Reference(path));
  EXPECT_EQ(result.graph.NumNodes(), 4u);
}

TEST(EdgeListReaderTest, Interns64BitIdsBeyondDenseLimit) {
  // Ids past the dense-intern threshold (2^26) exercise the hash-map
  // fallback, including one beyond 2^32.
  const std::string path = WriteFixture(
      "wide",
      "123456789012345 1\n1 99999999999\n99999999999 123456789012345\n"
      "1 70000000\n");
  const IngestResult result = IngestEdgeListFile(path);
  ExpectSameCsr(result.graph, Reference(path));
  EXPECT_EQ(result.graph.NumNodes(), 4u);
}

TEST(EdgeListReaderTest, ResultIsIdenticalAcrossThreadCounts) {
  Rng rng(7);
  const Graph g = GeneratePowerlawCluster(600, 4, 0.3, rng);
  std::ostringstream text;
  WriteEdgeList(g, text);
  const std::string path = WriteFixture("threads", text.str());

  IngestOptions options;
  const IngestResult one = IngestEdgeListFile(path, options);
  options.threads = 2;
  const IngestResult two = IngestEdgeListFile(path, options);
  options.threads = 8;
  const IngestResult eight = IngestEdgeListFile(path, options);
  ExpectSameCsr(one.graph, two.graph);
  ExpectSameCsr(one.graph, eight.graph);
  EXPECT_EQ(CsrContentHash(one.graph), CsrContentHash(eight.graph));
  ExpectSameCsr(one.graph, Reference(path));
}

TEST(EdgeListReaderTest, SpillPathProducesIdenticalResult) {
  Rng rng(11);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.2, rng);
  std::ostringstream text;
  WriteEdgeList(g, text);
  const std::string path = WriteFixture("spill", text.str());

  IngestOptions options;
  const IngestResult in_memory = IngestEdgeListFile(path, options);
  EXPECT_FALSE(in_memory.stats.spilled);
  options.spill_edges = 4;  // force the temp-file path immediately
  options.chunk_bytes = 64;  // and tiny read chunks with carried lines
  options.threads = 3;
  const IngestResult spilled = IngestEdgeListFile(path, options);
  EXPECT_TRUE(spilled.stats.spilled);
  ExpectSameCsr(in_memory.graph, spilled.graph);
}

TEST(EdgeListReaderTest, RawReadKeepsLoopsParallelEdgesAndAllComponents) {
  // 7 -> 0, 3 -> 1, 5 -> 2, 9 -> 3, 4 -> 4 by first appearance; nothing
  // is dropped, collapsed or cut away.
  const std::string path = WriteFixture(
      "raw", "7 3\n3 7\n3 3\n5 7\n9 4\n");
  IngestStats stats;
  const CsrGraph raw = ReadEdgeListCsr(path, {}, &stats);
  EXPECT_EQ(raw.raw_offsets(), (std::vector<std::size_t>{0, 3, 7, 8, 9, 10}));
  EXPECT_EQ(raw.raw_neighbors(),
            (std::vector<NodeId>{1, 1, 2, 0, 0, 1, 1, 0, 4, 3}));
  EXPECT_EQ(raw.NumEdges(), 5u);
  EXPECT_EQ(stats.edge_lines, 5u);
  EXPECT_EQ(stats.raw_nodes, 5u);
  // The kernel then applies the paper's policy to exactly this read.
  std::size_t loops = 0;
  std::size_t parallel = 0;
  ExpectSameCsr(PreprocessDataset(raw, &loops, &parallel), Reference(path));
  EXPECT_EQ(loops, 1u);
  EXPECT_EQ(parallel, 1u);
}

TEST(EdgeListReaderTest, CanonicalExportReingestsToIdenticalIds) {
  Rng rng(17);
  const CsrGraph g =
      PreprocessDataset(CsrGraph(GeneratePowerlawCluster(250, 4, 0.4, rng)));
  const std::string path = ::testing::TempDir() + "sgr-canonical-rt.txt";
  WriteCanonicalEdgeListFile(g, path);
  const IngestResult back = IngestEdgeListFile(path);
  EXPECT_TRUE(back.stats.canonical);
  ExpectSameCsr(back.graph, g);
  std::remove(path.c_str());
}

TEST(EdgeListReaderTest, CanonicalMarkerPreservesVerbatimIds) {
  // First-appearance renumbering would map 0->0, 2->1, 1->2 here; the
  // canonical marker must keep the declared dense ids instead.
  const std::string path = WriteFixture(
      "canon", "# sgr-canonical 1\n# nodes 3 edges 2\n0 2\n1 2\n");
  const IngestResult result = IngestEdgeListFile(path);
  ASSERT_EQ(result.graph.NumNodes(), 3u);
  const NeighborSpan n0 = result.graph.neighbors(0);
  ASSERT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0[0], 2u);
  const NeighborSpan n2 = result.graph.neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0], 0u);
  EXPECT_EQ(n2[1], 1u);
}

TEST(EdgeListReaderTest, CanonicalMarkerAfterEdgeLineIsIgnored) {
  // The marker is a file-format declaration: only honored before data.
  const std::string path = WriteFixture(
      "canonlate", "5 7\n# sgr-canonical 1\n7 9\n");
  const IngestResult result = IngestEdgeListFile(path);
  EXPECT_FALSE(result.stats.canonical);
  ExpectSameCsr(result.graph, Reference(path));
}

TEST(EdgeListReaderTest, RejectsTrailingTokenWithLineNumber) {
  const std::string path = WriteFixture("weighted", "0 1\n1 2 0.5\n");
  try {
    IngestEdgeListFile(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path + ":2:"), std::string::npos) << message;
    EXPECT_NE(message.find("not supported"), std::string::npos) << message;
  }
}

TEST(EdgeListReaderTest, RejectsMalformedAndNegativeIds) {
  EXPECT_THROW(
      IngestEdgeListFile(WriteFixture("words", "0 1\nnot numbers\n")),
      std::runtime_error);
  EXPECT_THROW(IngestEdgeListFile(WriteFixture("neg", "-1 2\n")),
               std::runtime_error);
  EXPECT_THROW(IngestEdgeListFile(WriteFixture("plus", "+1 2\n")),
               std::runtime_error);
  EXPECT_THROW(IngestEdgeListFile(WriteFixture("negzero", "-0 1\n")),
               std::runtime_error);
  EXPECT_THROW(IngestEdgeListFile(WriteFixture("lonely", "42\n")),
               std::runtime_error);
  EXPECT_THROW(
      IngestEdgeListFile(WriteFixture(
          "overflow", "99999999999999999999999999 1\n")),
      std::runtime_error);
}

TEST(EdgeListReaderTest, RejectsCanonicalIdOutOfDeclaredRange) {
  const std::string path = WriteFixture(
      "canonbad", "# sgr-canonical 1\n# nodes 2 edges 1\n0 5\n");
  EXPECT_THROW(IngestEdgeListFile(path), std::runtime_error);
}

TEST(EdgeListReaderTest, MissingFileThrowsWithPath) {
  try {
    IngestEdgeListFile("/nonexistent/sgr/graph.txt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/sgr/graph.txt"),
              std::string::npos);
  }
}

TEST(EdgeListReaderTest, EmptyAndCommentOnlyFilesMatchReference) {
  // The preprocessing of an empty graph is the 0-node graph; both
  // degenerate inputs must reproduce the reference exactly.
  for (const std::string contents : {std::string(""),
                                     std::string("# only comments\n")}) {
    const std::string path = WriteFixture("empty", contents);
    const IngestResult result = IngestEdgeListFile(path);
    ExpectSameCsr(result.graph, Reference(path));
    EXPECT_EQ(result.graph.NumNodes(), 0u);
    EXPECT_EQ(result.graph.NumEdges(), 0u);
  }
}

TEST(EdgeListReaderTest, HashFileContentsTracksBytes) {
  const std::string a = WriteFixture("hasha", "0 1\n");
  const std::string b = WriteFixture("hashb", "0 1\n");
  const std::string c = WriteFixture("hashc", "0 2\n");
  EXPECT_EQ(HashFileContents(a), HashFileContents(b));
  EXPECT_NE(HashFileContents(a), HashFileContents(c));
  EXPECT_THROW(HashFileContents("/nonexistent/sgr/graph.txt"),
               std::runtime_error);
}

TEST(EdgeListReaderTest, HashToHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(HashToHex(0), "0000000000000000");
  EXPECT_EQ(HashToHex(0xabcdef0123456789ULL), "abcdef0123456789");
  EXPECT_EQ(HashToHex(~std::uint64_t{0}), "ffffffffffffffff");
}

}  // namespace
}  // namespace sgr
