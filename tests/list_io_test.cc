#include "sampling/list_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "sampling/random_walk.h"

namespace sgr {
namespace {

TEST(ListIoTest, RoundTripPreservesEverything) {
  Rng gen_rng(1);
  const CsrGraph g(GeneratePowerlawCluster(300, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(2);
  const SamplingList list = RandomWalkSample(oracle, 0, 40, rng);

  std::stringstream buffer;
  WriteSamplingList(list, buffer);
  const SamplingList back = ReadSamplingList(buffer);

  EXPECT_EQ(back.is_walk, list.is_walk);
  EXPECT_EQ(back.visit_sequence, list.visit_sequence);
  ASSERT_EQ(back.neighbors.size(), list.neighbors.size());
  for (const auto& [v, nbrs] : list.neighbors) {
    ASSERT_TRUE(back.neighbors.count(v) > 0) << "node " << v;
    EXPECT_EQ(back.neighbors.at(v), nbrs);
  }
}

TEST(ListIoTest, RejectsMissingHeader) {
  std::istringstream in("walk 1\nseq 0\n");
  EXPECT_THROW(ReadSamplingList(in), std::runtime_error);
}

TEST(ListIoTest, RejectsTruncatedSeq) {
  std::istringstream in("# sgr-sampling-list v1\nwalk 1\nseq 3 1 2\n");
  EXPECT_THROW(ReadSamplingList(in), std::runtime_error);
}

TEST(ListIoTest, RejectsTruncatedNodeRecord) {
  std::istringstream in(
      "# sgr-sampling-list v1\nwalk 1\nseq 1 5\nnode 5 3 1 2\n");
  EXPECT_THROW(ReadSamplingList(in), std::runtime_error);
}

TEST(ListIoTest, RejectsTrajectoryWithoutNeighborRecord) {
  std::istringstream in("# sgr-sampling-list v1\nwalk 1\nseq 1 7\n");
  EXPECT_THROW(ReadSamplingList(in), std::runtime_error);
}

TEST(ListIoTest, RejectsUnknownRecord) {
  std::istringstream in("# sgr-sampling-list v1\nbogus 1\n");
  EXPECT_THROW(ReadSamplingList(in), std::runtime_error);
}

TEST(ListIoTest, NonWalkFlagSurvives) {
  SamplingList list;
  list.is_walk = false;
  list.visit_sequence = {3};
  list.neighbors[3] = {4, 5};
  list.neighbors[4] = {3};
  std::stringstream buffer;
  WriteSamplingList(list, buffer);
  const SamplingList back = ReadSamplingList(buffer);
  EXPECT_FALSE(back.is_walk);
  EXPECT_EQ(back.neighbors.at(3), (std::vector<NodeId>{4, 5}));
}

TEST(ListIoTest, FileRoundTrip) {
  SamplingList list;
  list.is_walk = true;
  list.visit_sequence = {1, 2, 1};
  list.neighbors[1] = {2};
  list.neighbors[2] = {1};
  const std::string path = ::testing::TempDir() + "/sgr_list_io_test.txt";
  WriteSamplingListFile(list, path);
  const SamplingList back = ReadSamplingListFile(path);
  EXPECT_EQ(back.visit_sequence, list.visit_sequence);
  EXPECT_THROW(ReadSamplingListFile("/nonexistent/list.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace sgr
