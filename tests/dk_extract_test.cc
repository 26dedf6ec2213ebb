#include "dk/dk_extract.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace sgr {
namespace {

TEST(DkExtractTest, DegreeVectorOfStar) {
  const CsrGraph g(GenerateStar(6));
  const DegreeVector dv = ExtractDegreeVector(g);
  ASSERT_EQ(dv.size(), 6u);
  EXPECT_EQ(dv[1], 5);
  EXPECT_EQ(dv[5], 1);
  EXPECT_EQ(DegreeVectorNodes(dv), 6);
}

TEST(DkExtractTest, DegreeVectorHandshake) {
  Rng rng(31);
  const CsrGraph g(GeneratePowerlawCluster(400, 3, 0.4, rng));
  const DegreeVector dv = ExtractDegreeVector(g);
  EXPECT_EQ(DegreeVectorTotalDegree(dv),
            2 * static_cast<std::int64_t>(g.NumEdges()));
}

TEST(DkExtractTest, JdmOfPath) {
  const CsrGraph g(GeneratePath(4));  // degrees 1,2,2,1
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(g);
  EXPECT_EQ(jdm.At(1, 2), 2);
  EXPECT_EQ(jdm.At(2, 2), 1);
  EXPECT_EQ(jdm.TotalEdges(), 3);
}

TEST(DkExtractTest, JdmRowSumsMatchDegreeVector) {
  Rng rng(32);
  const CsrGraph g(GeneratePowerlawCluster(500, 4, 0.3, rng));
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(g);
  const DegreeVector dv = ExtractDegreeVector(g);
  EXPECT_TRUE(jdm.SatisfiesJdm3(dv));
  EXPECT_TRUE(jdm.SatisfiesJdm2());
}

TEST(DkExtractTest, JdmSelfLoopGoesToDiagonal) {
  Graph g(2);
  g.AddEdge(0, 0);  // degree(0) = 2
  g.AddEdge(0, 1);  // degree(0) = 3, degree(1) = 1
  const JointDegreeMatrix jdm = ExtractJointDegreeMatrix(CsrGraph(g));
  EXPECT_EQ(jdm.At(3, 3), 1);  // the loop
  EXPECT_EQ(jdm.At(3, 1), 1);
}

TEST(DkExtractTest, TrianglesOfComplete) {
  const CsrGraph g(GenerateComplete(5));
  const std::vector<std::int64_t> t = CountTrianglesPerNode(g);
  // Each node of K5 is in C(4,2) = 6 triangles.
  for (std::int64_t tv : t) EXPECT_EQ(tv, 6);
}

TEST(DkExtractTest, TrianglesOfCycleAreZero) {
  const CsrGraph g(GenerateCycle(8));
  for (std::int64_t tv : CountTrianglesPerNode(g)) EXPECT_EQ(tv, 0);
}

TEST(DkExtractTest, TrianglesWithMultiEdges) {
  // Triangle with one doubled side: t counts multiplicities.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  const std::vector<std::int64_t> t = CountTrianglesPerNode(CsrGraph(g));
  // t_2 = A_01 * A_02 * ... : pairs (0,1): A_20 A_21 A_01 = 1*1*2 = 2.
  EXPECT_EQ(t[2], 2);
  EXPECT_EQ(t[0], 2);
  EXPECT_EQ(t[1], 2);
}

TEST(DkExtractTest, LoopsFormNoTriangles) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(0, 0);  // loop must not add triangles
  const std::vector<std::int64_t> t = CountTrianglesPerNode(CsrGraph(g));
  EXPECT_EQ(t[0], 1);
  EXPECT_EQ(t[1], 1);
  EXPECT_EQ(t[2], 1);
}

TEST(DkExtractTest, SimpleAndMultigraphCountersAgree) {
  Rng rng(33);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.6, rng);
  ASSERT_TRUE(CsrGraph(g).IsSimple());
  const std::vector<std::int64_t> fast = CountTrianglesPerNode(CsrGraph(g));
  // One extra loop makes the same graph a multigraph. Loops form no
  // triangles, so the counts must not move.
  Graph h = g;
  h.AddEdge(0, 0);
  const std::vector<std::int64_t> slow = CountTrianglesPerNode(CsrGraph(h));
  EXPECT_EQ(fast, slow);
}

TEST(DkExtractTest, ClusteringOfComplete) {
  const CsrGraph g(GenerateComplete(6));
  const std::vector<double> c = ExtractDegreeDependentClustering(g);
  ASSERT_EQ(c.size(), 6u);
  EXPECT_DOUBLE_EQ(c[5], 1.0);
}

TEST(DkExtractTest, ClusteringLowDegreesAreZero) {
  const CsrGraph g(GenerateStar(5));
  const std::vector<double> c = ExtractDegreeDependentClustering(g);
  EXPECT_DOUBLE_EQ(c[1], 0.0);
  EXPECT_DOUBLE_EQ(c[4], 0.0);
}

}  // namespace
}  // namespace sgr
