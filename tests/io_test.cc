#include "graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/edge_list_reader.h"
#include "graph/generators.h"

namespace sgr {
namespace {

/// Writes `contents` to a fresh file under the gtest temp dir and reads
/// it back raw with the one edge-list reader. The file is named after the
/// running test, so tests run as parallel processes never share one.
CsrGraph ReadText(const std::string& contents) {
  static int counter = 0;
  const std::string path =
      ::testing::TempDir() + "sgr-io-" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "-" +
      std::to_string(counter++) + ".txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }
  CsrGraph g = ReadEdgeListCsr(path);
  std::remove(path.c_str());
  return g;
}

TEST(IoTest, ReadEdgeListBasic) {
  const CsrGraph g = ReadText("0 1\n1 2\n2 0\n");
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(IoTest, ReadEdgeListSkipsComments) {
  const CsrGraph g = ReadText("# header\n% another\n5 7\n");
  EXPECT_EQ(g.NumNodes(), 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(IoTest, ReadEdgeListRenumbersSparseIds) {
  const CsrGraph g = ReadText("100 200\n200 300\n");
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));  // 100->0, 200->1
  EXPECT_TRUE(g.HasEdge(1, 2));  // 300->2
}

TEST(IoTest, ReadEdgeListRejectsMalformed) {
  EXPECT_THROW(ReadText("0 1\nnot numbers\n"), std::runtime_error);
}

TEST(IoTest, ReadEdgeListRejectsNegative) {
  EXPECT_THROW(ReadText("-1 2\n"), std::runtime_error);
}

TEST(IoTest, ReadEdgeListRejectsTrailingTokens) {
  // Regression: a third column used to be silently dropped, so weighted
  // or temporal files parsed as unweighted graphs without a complaint.
  EXPECT_THROW(ReadText("0 1\n1 2 0.75\n"), std::runtime_error);
  EXPECT_THROW(ReadText("0 1 1389394764\n"), std::runtime_error);
}

TEST(IoTest, ReadEdgeListToleratesCrlf) {
  // Regression: CRLF line endings used to leave "\r" glued to the second
  // id, which failed the full-token parse once trailing garbage was
  // rejected. Windows-edited SNAP files are routine, so '\r' is stripped.
  const CsrGraph g = ReadText("0\t1\r\n1 2\r\n");
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(IoTest, CanonicalEdgeListHeaderAndBody) {
  Graph g(4);
  g.AddEdge(2, 0);
  g.AddEdge(0, 1);
  g.AddEdge(3, 3);  // loop: emitted once
  g.AddEdge(1, 2);
  const CsrGraph csr(g);
  std::ostringstream out;
  WriteCanonicalEdgeList(csr, out);
  EXPECT_EQ(out.str(),
            "# sgr-canonical 1\n"
            "# nodes 4 edges 4\n"
            "0 1\n"
            "0 2\n"
            "1 2\n"
            "3 3\n");
}

TEST(IoTest, CanonicalEdgeListEmitsParallelEdgesPerCopy) {
  Graph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  const CsrGraph csr(g);
  std::ostringstream out;
  WriteCanonicalEdgeList(csr, out);
  EXPECT_EQ(out.str(),
            "# sgr-canonical 1\n"
            "# nodes 2 edges 2\n"
            "0 1\n"
            "0 1\n");
}

TEST(IoTest, CanonicalEdgeListRoundTripsThroughReadEdgeList) {
  // The canonical marker makes the raw read keep the written ids, so the
  // round trip is an exact identity, loops and parallel edges included.
  Rng rng(33);
  Graph g = GeneratePowerlawCluster(150, 3, 0.4, rng);
  g.AddEdge(4, 4);
  g.AddEdge(0, 1);
  const CsrGraph csr(g);
  std::ostringstream text;
  WriteCanonicalEdgeList(csr, text);
  const CsrGraph back = ReadText(text.str());
  EXPECT_EQ(back.raw_offsets(), csr.raw_offsets());
  EXPECT_EQ(back.raw_neighbors(), csr.raw_neighbors());
}

TEST(IoTest, RoundTripPreservesStructure) {
  Rng rng(21);
  const Graph g = GeneratePowerlawCluster(200, 3, 0.4, rng);
  std::ostringstream text;
  WriteEdgeList(g, text);
  const CsrGraph back = ReadText(text.str());
  EXPECT_EQ(back.NumNodes(), g.NumNodes());
  EXPECT_EQ(back.NumEdges(), g.NumEdges());
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(back.HasEdge(e.u, e.v));
  }
}

TEST(IoTest, ReadMissingFileThrows) {
  EXPECT_THROW(ReadEdgeListCsr("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(IoTest, GexfContainsNodesAndEdges) {
  Graph g(2);
  g.AddEdge(0, 1);
  std::ostringstream out;
  WriteGexf(CsrGraph(g), out);
  const std::string xml = out.str();
  EXPECT_NE(xml.find("<gexf"), std::string::npos);
  EXPECT_NE(xml.find("<node id=\"0\""), std::string::npos);
  EXPECT_NE(xml.find("<node id=\"1\""), std::string::npos);
  EXPECT_NE(xml.find("source=\"0\" target=\"1\""), std::string::npos);
  // Degree attribute exported for Gephi sizing.
  EXPECT_NE(xml.find("value=\"1\""), std::string::npos);
}

}  // namespace
}  // namespace sgr
