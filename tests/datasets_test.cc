#include "exp/datasets.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "graph/components.h"
#include "graph/edge_list_reader.h"

namespace sgr {
namespace {

TEST(DatasetsTest, RegistryHasSixStandardDatasets) {
  const auto specs = StandardDatasets();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "anybeat");
  EXPECT_EQ(specs[5].name, "livemocha");
  // Paper reference sizes from Table I.
  EXPECT_EQ(specs[0].paper_nodes, 12645u);
  EXPECT_EQ(specs[5].paper_edges, 2193083u);
}

TEST(DatasetsTest, YoutubeIsLargest) {
  const DatasetSpec yt = YoutubeDataset();
  EXPECT_EQ(yt.name, "youtube");
  for (const auto& spec : StandardDatasets()) {
    EXPECT_GT(yt.num_nodes, spec.num_nodes);
  }
}

TEST(DatasetsTest, DatasetByNameFindsAll) {
  EXPECT_EQ(DatasetByName("gowalla").name, "gowalla");
  EXPECT_EQ(DatasetByName("youtube").name, "youtube");
  EXPECT_THROW(DatasetByName("facebook"), std::out_of_range);
}

TEST(DatasetsTest, LoadedDatasetsAreSimpleConnected) {
  // Generated stand-ins must satisfy the paper's preprocessing contract.
  unsetenv("SGR_DATASET_DIR");
  setenv("SGR_DATASET_SCALE", "0.2", 1);  // keep the test fast
  for (const auto& spec : StandardDatasets()) {
    const CsrGraph g = LoadDatasetCsr(spec);
    EXPECT_TRUE(g.IsSimple()) << spec.name;
    EXPECT_EQ(ConnectedComponents(g).sizes.size(), 1u) << spec.name;
    EXPECT_GT(g.NumNodes(), spec.num_nodes / 10) << spec.name;
  }
  unsetenv("SGR_DATASET_SCALE");
}

TEST(DatasetsTest, ScaleEnvControlsSize) {
  unsetenv("SGR_DATASET_DIR");
  const DatasetSpec spec = DatasetByName("anybeat");
  setenv("SGR_DATASET_SCALE", "0.1", 1);
  const CsrGraph small = LoadDatasetCsr(spec);
  setenv("SGR_DATASET_SCALE", "0.3", 1);
  const CsrGraph big = LoadDatasetCsr(spec);
  unsetenv("SGR_DATASET_SCALE");
  EXPECT_LT(small.NumNodes(), big.NumNodes());
}

TEST(DatasetsTest, GenerationIsDeterministic) {
  unsetenv("SGR_DATASET_DIR");
  setenv("SGR_DATASET_SCALE", "0.1", 1);
  const DatasetSpec spec = DatasetByName("epinions");
  const CsrGraph a = LoadDatasetCsr(spec);
  const CsrGraph b = LoadDatasetCsr(spec);
  unsetenv("SGR_DATASET_SCALE");
  EXPECT_EQ(a.raw_offsets(), b.raw_offsets());
  EXPECT_EQ(a.raw_neighbors(), b.raw_neighbors());
}

TEST(DatasetsTest, MissingDatasetFileFailsLoudly) {
  // Regression: a set SGR_DATASET_DIR with a missing file used to fall
  // back silently to the synthetic generator — experiments claiming to
  // run on real data were running on stand-ins. Now it is a hard error
  // naming the resolved path.
  const std::string dir =
      ::testing::TempDir() + "sgr-empty-dataset-dir";
  std::filesystem::create_directories(dir);
  setenv("SGR_DATASET_DIR", dir.c_str(), 1);
  const DatasetSpec spec = DatasetByName("anybeat");
  try {
    (void)LoadDatasetCsr(spec);
    unsetenv("SGR_DATASET_DIR");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("anybeat.txt"), std::string::npos) << message;
    EXPECT_NE(message.find("refusing"), std::string::npos) << message;
  }
  unsetenv("SGR_DATASET_DIR");
}

TEST(DatasetsTest, MalformedScaleRejected) {
  // Regression: strtod's result used to be taken without checking the end
  // pointer, so "0.x5" ran at scale 0 and "nan" at NaN. Every malformed,
  // non-finite, or non-positive value must now throw.
  unsetenv("SGR_DATASET_DIR");
  const DatasetSpec spec = DatasetByName("anybeat");
  for (const char* bad :
       {"0.x5", "abc", "1.5extra", "inf", "-inf", "nan", "0", "-1", " "}) {
    setenv("SGR_DATASET_SCALE", bad, 1);
    EXPECT_THROW((void)LoadDatasetCsr(spec), std::runtime_error) << bad;
  }
  unsetenv("SGR_DATASET_SCALE");
}

TEST(DatasetsTest, ScaleRoundingNodeCountToZeroRejected) {
  unsetenv("SGR_DATASET_DIR");
  const DatasetSpec spec = DatasetByName("anybeat");  // 3000 nodes
  setenv("SGR_DATASET_SCALE", "0.0000001", 1);
  EXPECT_THROW((void)LoadDatasetCsr(spec), std::runtime_error);
  unsetenv("SGR_DATASET_SCALE");
  // The explicit override takes the same validation path.
  EXPECT_THROW((void)LoadDatasetCsr(spec, 0.0000001), std::runtime_error);
}

TEST(DatasetsTest, StandInHashesAreFrozen) {
  // CsrContentHash of every synthetic stand-in at three scales. A change
  // to the generator, the preprocessing kernel or its relabelling moves
  // these, and with them every recorded benchmark number.
  unsetenv("SGR_DATASET_DIR");
  unsetenv("SGR_DATASET_SCALE");
  const struct {
    const char* name;
    double scale;
    const char* hash;
  } kFrozen[] = {
      {"anybeat", 0.1, "549e5db0634deb19"},
      {"brightkite", 0.1, "c1f6ff208b365af4"},
      {"epinions", 0.1, "937a4b1ea5ac3e30"},
      {"slashdot", 0.1, "24f5cc7c23313063"},
      {"gowalla", 0.1, "32f0ea993d2c0cb2"},
      {"livemocha", 0.1, "c5122723e82bb7a1"},
      {"youtube", 0.1, "3fff3a21e9405070"},
      {"anybeat", 0.5, "201fc239b3fd1f17"},
      {"brightkite", 0.5, "9f52193caaa6faf0"},
      {"epinions", 0.5, "75b126361af84170"},
      {"slashdot", 0.5, "646094d0104fb3d8"},
      {"gowalla", 0.5, "a64eec604a15fb64"},
      {"livemocha", 0.5, "12c1ac8f5fd3c696"},
      {"youtube", 0.5, "c7f36a8e76ee5814"},
      {"anybeat", 1.0, "28301d34262df120"},
      {"brightkite", 1.0, "c16f0a4df6353645"},
      {"epinions", 1.0, "95e626ab6905dc8f"},
      {"slashdot", 1.0, "9065e806a3a49eb1"},
      {"gowalla", 1.0, "372b313410f539a5"},
      {"livemocha", 1.0, "5f94f074a07b09e8"},
      {"youtube", 1.0, "15576d0ea189bbf4"},
  };
  for (const auto& frozen : kFrozen) {
    DatasetProvenance provenance;
    const CsrGraph g =
        LoadDatasetCsr(DatasetByName(frozen.name), frozen.scale, &provenance);
    EXPECT_EQ(HashToHex(CsrContentHash(g)), frozen.hash)
        << frozen.name << " at scale " << frozen.scale;
    EXPECT_EQ(provenance.name, frozen.name);
    EXPECT_EQ(provenance.source, "generator");
    EXPECT_TRUE(provenance.path.empty());
    EXPECT_TRUE(provenance.content_hash.empty());
    EXPECT_DOUBLE_EQ(provenance.scale, frozen.scale);
  }
}

TEST(DatasetsTest, FileBackedLoadRecordsProvenanceAndMatchesReference) {
  const std::string dir = ::testing::TempDir() + "sgr-dataset-dir";
  std::filesystem::create_directories(dir);
  const std::string file = dir + "/anybeat.txt";
  {
    std::ofstream out(file);
    out << "# tiny stand-in\n0 1\n1 2\n2 0\n2 3\n9 9\n";
  }
  setenv("SGR_DATASET_DIR", dir.c_str(), 1);
  const DatasetSpec spec = DatasetByName("anybeat");
  DatasetProvenance provenance;
  const CsrGraph csr = LoadDatasetCsr(spec, 0.0, &provenance);
  unsetenv("SGR_DATASET_DIR");
  // The loop at 9 lies outside the kept component {0, 1, 2, 3}.
  EXPECT_EQ(csr.raw_offsets(), (std::vector<std::size_t>{0, 2, 4, 7, 8}));
  EXPECT_EQ(csr.raw_neighbors(),
            (std::vector<NodeId>{1, 2, 0, 2, 0, 1, 3, 2}));
  EXPECT_EQ(provenance.source, "file");
  EXPECT_EQ(provenance.path, file);
  EXPECT_EQ(provenance.content_hash.size(), 16u);
  EXPECT_EQ(provenance.content_hash,
            HashToHex(HashFileContents(file)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sgr
