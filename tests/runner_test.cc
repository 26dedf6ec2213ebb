#include "exp/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "graph/generators.h"

namespace sgr {
namespace {

ExperimentConfig FastConfig() {
  ExperimentConfig config;
  config.query_fraction = 0.1;
  config.restoration.rewire.rewiring_coefficient = 5.0;
  return config;
}

TEST(RunnerTest, RunsAllSixMethods) {
  Rng rng(1);
  const Graph g = GeneratePowerlawCluster(400, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  const auto results = RunExperiment(g, props, FastConfig(), 42);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].kind, MethodKind::kBfs);
  EXPECT_EQ(results[5].kind, MethodKind::kProposed);
  for (const auto& r : results) {
    EXPECT_GT(r.restoration.graph.NumNodes(), 0u) << MethodName(r.kind);
    EXPECT_GE(r.average_distance, 0.0);
  }
}

TEST(RunnerTest, MethodSubsetIsRespected) {
  Rng rng(2);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.methods = {MethodKind::kRandomWalk, MethodKind::kProposed};
  const auto results = RunExperiment(g, props, config, 7);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].kind, MethodKind::kRandomWalk);
  EXPECT_EQ(results[1].kind, MethodKind::kProposed);
}

TEST(RunnerTest, ReproducibleWithSameSeed) {
  Rng rng(3);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.methods = {MethodKind::kProposed};
  const auto a = RunExperiment(g, props, config, 11);
  const auto b = RunExperiment(g, props, config, 11);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].restoration.graph.NumEdges(),
            b[0].restoration.graph.NumEdges());
  EXPECT_DOUBLE_EQ(a[0].average_distance, b[0].average_distance);
}

TEST(RunnerTest, DifferentSeedsGiveDifferentSamples) {
  Rng rng(4);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.methods = {MethodKind::kRandomWalk};
  const auto a = RunExperiment(g, props, config, 1);
  const auto b = RunExperiment(g, props, config, 2);
  // Subgraphs from different walks almost surely differ in edge count.
  EXPECT_NE(a[0].restoration.graph.NumEdges() * 1000003u +
                a[0].restoration.graph.NumNodes(),
            b[0].restoration.graph.NumEdges() * 1000003u +
                b[0].restoration.graph.NumNodes());
}

TEST(RunnerTest, BudgetFollowsQueryFraction) {
  Rng rng(5);
  const Graph g = GeneratePowerlawCluster(500, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.query_fraction = 0.06;
  config.methods = {MethodKind::kRandomWalk};
  const auto results = RunExperiment(g, props, config, 9);
  EXPECT_EQ(results[0].restoration.subgraph_queried, 30u);
}

TEST(RunnerTest, EnvInputParsesStrictlyAndFallsBack) {
  setenv("SGR_TEST_ENV_VALUE", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvInput("SGR_TEST_ENV_VALUE", 1.0), 2.5);
  unsetenv("SGR_TEST_ENV_VALUE");
  EXPECT_DOUBLE_EQ(EnvInput("SGR_TEST_ENV_VALUE", 1.0), 1.0);
  setenv("SGR_TEST_ENV_VALUE", "", 1);  // empty counts as unset
  EXPECT_DOUBLE_EQ(EnvInput("SGR_TEST_ENV_VALUE", 3.0), 3.0);
  // Junk is an error naming the variable, never a silent fallback.
  setenv("SGR_TEST_ENV_VALUE", "garbage", 1);
  try {
    (void)EnvInput("SGR_TEST_ENV_VALUE", 3.0);
    ADD_FAILURE() << "garbage accepted";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("SGR_TEST_ENV_VALUE"),
              std::string::npos)
        << e.what();
  }
  setenv("SGR_TEST_ENV_VALUE", "-1", 1);
  EXPECT_THROW((void)EnvInput<std::uint64_t>("SGR_TEST_ENV_VALUE", 1),
               InputError);
  unsetenv("SGR_TEST_ENV_VALUE");
}

}  // namespace
}  // namespace sgr
