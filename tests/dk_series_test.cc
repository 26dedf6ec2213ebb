#include "dk/dk_series.h"

#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "graph/generators.h"

#include "jdm_entries.h"

namespace sgr {
namespace {

class DkSeriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xDC);
    original_ = new CsrGraph(GenerateSocialGraph(1000, 4, 0.5, 0.4, rng));
  }
  static void TearDownTestSuite() {
    delete original_;
    original_ = nullptr;
  }
  static CsrGraph* original_;
};

CsrGraph* DkSeriesTest::original_ = nullptr;

TEST_F(DkSeriesTest, ZeroKPreservesSizeOnly) {
  Rng rng(1);
  const Graph g = GenerateDkGraph(*original_, DkOrder::k0, rng);
  EXPECT_EQ(g.NumNodes(), original_->NumNodes());
  EXPECT_EQ(g.NumEdges(), original_->NumEdges());
  // Degree distribution is Poisson-like, far from the heavy tail.
  EXPECT_GT(NormalizedL1(DegreeDistribution(*original_),
                         DegreeDistribution(CsrGraph(g))),
            0.4);
}

TEST_F(DkSeriesTest, OneKPreservesDegreeVector) {
  Rng rng(2);
  const Graph g = GenerateDkGraph(*original_, DkOrder::k1, rng);
  EXPECT_EQ(ExtractDegreeVector(CsrGraph(g)), ExtractDegreeVector(*original_));
}

TEST_F(DkSeriesTest, TwoKPreservesJointDegreeMatrix) {
  Rng rng(3);
  const Graph g = GenerateDkGraph(*original_, DkOrder::k2, rng);
  EXPECT_EQ(ExtractDegreeVector(CsrGraph(g)), ExtractDegreeVector(*original_));
  const JointDegreeMatrix expected = ExtractJointDegreeMatrix(*original_);
  const JointDegreeMatrix actual = ExtractJointDegreeMatrix(CsrGraph(g));
  EXPECT_EQ(JdmEntries(actual), JdmEntries(expected));
}

TEST_F(DkSeriesTest, LadderImprovesDegreeDistribution) {
  Rng rng(4);
  const std::vector<double> truth = DegreeDistribution(*original_);
  const double e0 = NormalizedL1(
      truth, DegreeDistribution(
                 CsrGraph(GenerateDkGraph(*original_, DkOrder::k0, rng))));
  const double e1 = NormalizedL1(
      truth, DegreeDistribution(
                 CsrGraph(GenerateDkGraph(*original_, DkOrder::k1, rng))));
  EXPECT_LT(e1, e0);
  EXPECT_NEAR(e1, 0.0, 1e-12);  // 1K is exact on P(k)
}

TEST_F(DkSeriesTest, TwoPointFiveKImprovesClustering) {
  Rng rng(5);
  const std::vector<double> truth =
      ExtractDegreeDependentClustering(*original_);
  const double e2 = NormalizedL1(
      truth, ExtractDegreeDependentClustering(
                 CsrGraph(GenerateDkGraph(*original_, DkOrder::k2, rng))));
  const double e25 = NormalizedL1(
      truth, ExtractDegreeDependentClustering(CsrGraph(GenerateDkGraph(
                 *original_, DkOrder::k2_5, rng, /*rc=*/100.0))));
  EXPECT_LT(e25, 0.8 * e2);
}

TEST_F(DkSeriesTest, TwoPointFiveKTracksGlobalProperties) {
  // Gjoka et al.'s headline (inherited by the paper): 2.5K-graphs
  // reproduce global properties they never target, e.g. the mean shortest
  // path.
  Rng rng(6);
  PropertyOptions options;
  options.max_path_sources = 200;
  const GraphProperties truth =
      ComputeProperties(*original_, options);
  const GraphProperties got = ComputeProperties(
      CsrGraph(GenerateDkGraph(*original_, DkOrder::k2_5, rng, 100.0)),
      options);
  EXPECT_NEAR(got.average_path_length, truth.average_path_length,
              0.25 * truth.average_path_length);
}

}  // namespace
}  // namespace sgr
