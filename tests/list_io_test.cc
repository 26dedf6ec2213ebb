#include "sampling/list_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "sampling/random_walk.h"

#include "sample_helpers.h"

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

  EXPECT_EQ(back.is_walk(), list.is_walk());
  EXPECT_EQ(back.Walk(), list.Walk());
  EXPECT_EQ(back.SeenIds(), list.SeenIds());
  EXPECT_EQ(back.CompactNeighbors(), list.CompactNeighbors());
  ASSERT_EQ(back.NumQueried(), list.NumQueried());
  for (std::uint32_t c = 0; c < list.NumQueried(); ++c) {
    const NeighborSpan a = back.Row(c);
    const NeighborSpan b = list.Row(c);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << c;
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

/// The message ReadSamplingList throws for `text` read as "list.txt"
/// (empty when it reads without error).
std::string ReadError(const std::string& text) {
  std::istringstream in(text);
  try {
    ReadSamplingList(in, "list.txt");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr char kHead[] = "# sgr-sampling-list v1\nwalk 1\n";

TEST(ListIoTest, RejectsNegativeId) {
  // "-1" must not wrap to 4294967295.
  const std::string error =
      ReadError(std::string(kHead) + "seq 2 -1 1\nnode 1 0\n");
  EXPECT_NE(error.find("list.txt:3"), std::string::npos) << error;
  EXPECT_NE(error.find("'-1'"), std::string::npos) << error;
}

TEST(ListIoTest, RejectsIdBeyondNodeIdRange) {
  const std::string error =
      ReadError(std::string(kHead) + "seq 1 4294967296\n");
  EXPECT_NE(error.find("list.txt:3"), std::string::npos) << error;
}

TEST(ListIoTest, RejectsSecondRecordForANode) {
  const std::string error =
      ReadError(std::string(kHead) + "seq 1 1\nnode 1 1 2\nnode 1 1 3\n");
  EXPECT_NE(error.find("list.txt:5"), std::string::npos) << error;
  EXPECT_NE(error.find("second record for node 1"), std::string::npos)
      << error;
}

TEST(ListIoTest, RejectsTrailingTokens) {
  const std::string seq =
      ReadError(std::string(kHead) + "seq 1 1 7 8\nnode 1 0\n");
  EXPECT_NE(seq.find("list.txt:3: trailing token '7'"), std::string::npos)
      << seq;
  const std::string node =
      ReadError(std::string(kHead) + "seq 1 1\nnode 1 1 2 3\n");
  EXPECT_NE(node.find("list.txt:4: trailing token '3'"), std::string::npos)
      << node;
  const std::string walk = ReadError(
      "# sgr-sampling-list v1\nwalk 1 1\nseq 1 1\nnode 1 0\n");
  EXPECT_NE(walk.find("list.txt:2"), std::string::npos) << walk;
}

TEST(ListIoTest, RejectsWalkFlagOtherThanZeroOrOne) {
  const std::string error = ReadError(
      "# sgr-sampling-list v1\nwalk 7\nseq 1 1\nnode 1 0\n");
  EXPECT_NE(error.find("list.txt:2"), std::string::npos) << error;
  EXPECT_NE(error.find("'7'"), std::string::npos) << error;
}

TEST(ListIoTest, HugeDeclaredDegreeIsATruncatedLine) {
  // Reported as truncated, without allocating the declared count.
  const std::string error =
      ReadError(std::string(kHead) + "seq 1 1\nnode 1 40000000000 2\n");
  EXPECT_NE(error.find("list.txt:4: truncated node line"), std::string::npos)
      << error;
}

TEST(ListIoTest, RejectsRowThatIsNotAscending) {
  const std::string error =
      ReadError(std::string(kHead) + "seq 1 1\nnode 1 2 5 3\n");
  EXPECT_NE(error.find("list.txt:4"), std::string::npos) << error;
  EXPECT_NE(error.find("not ascending"), std::string::npos) << error;
}

TEST(ListIoTest, AscendingRowMayRepeatANeighbor) {
  // A multigraph row repeats an endpoint; ascending means non-decreasing.
  EXPECT_EQ(ReadError(std::string(kHead) + "seq 2 1 2\nnode 1 1 2\n" +
                      "node 2 2 1 1\n"),
            "");
}

TEST(ListIoTest, NonWalkFlagSurvives) {
  const SamplingList list =
      HandBuiltList(false, {3}, {{3, {4, 5}}, {4, {3}}});
  std::stringstream buffer;
  WriteSamplingList(list, buffer);
  const SamplingList back = ReadSamplingList(buffer);
  EXPECT_FALSE(back.is_walk());
  const NeighborSpan row = back.Row(QueriedId(back, 3));
  EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()),
            (std::vector<NodeId>{4, 5}));
}

TEST(ListIoTest, FileRoundTrip) {
  const SamplingList list =
      HandBuiltList(true, {1, 2, 1}, {{1, {2}}, {2, {1}}});
  const std::string path = ::testing::TempDir() + "/sgr_list_io_test.txt";
  WriteSamplingListFile(list, path);
  const SamplingList back = ReadSamplingListFile(path);
  EXPECT_EQ(Visits(back), Visits(list));
  EXPECT_THROW(ReadSamplingListFile("/nonexistent/list.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace sgr
