#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/frontier.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/non_backtracking.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "scenario/spec.h"

namespace sgr {
namespace {

CsrGraph TestGraph() {
  GeneratorSpec spec;
  spec.model = "powerlaw";
  spec.nodes = 300;
  spec.edges_per_node = 3;
  spec.triad_p = 0.4;
  spec.seed = 7;
  return BuildGeneratorGraph(spec);
}

/// Every crawler's node-budget contract: a crawl with budget B queries at
/// most B distinct nodes from the oracle — that is the cost model the
/// paper's "x% of nodes queried" axis (and the report's oracle_queries
/// field) is built on.
TEST(OracleBudgetTest, EveryCrawlerRespectsTheNodeBudget) {
  const CsrGraph g = TestGraph();
  const std::size_t budget = 30;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const NodeId start = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));

    struct Crawl {
      const char* name;
      std::size_t queries;
    };
    std::vector<Crawl> crawls;
    {
      QueryOracle oracle(g);
      RandomWalkSample(oracle, start, budget, rng);
      crawls.push_back({"rw", oracle.unique_queries()});
    }
    {
      QueryOracle oracle(g);
      NonBacktrackingWalkSample(oracle, start, budget, rng);
      crawls.push_back({"nbrw", oracle.unique_queries()});
    }
    {
      QueryOracle oracle(g);
      MetropolisHastingsWalkSample(oracle, start, budget, rng);
      crawls.push_back({"mhrw", oracle.unique_queries()});
    }
    {
      QueryOracle oracle(g);
      BfsSample(oracle, start, budget);
      crawls.push_back({"bfs", oracle.unique_queries()});
    }
    {
      QueryOracle oracle(g);
      SnowballSample(oracle, start, budget, /*k=*/50, rng);
      crawls.push_back({"snowball", oracle.unique_queries()});
    }
    {
      QueryOracle oracle(g);
      ForestFireSample(oracle, start, budget, /*pf=*/0.7, rng);
      crawls.push_back({"ff", oracle.unique_queries()});
    }
    {
      QueryOracle oracle(g);
      std::vector<NodeId> seeds;
      for (std::size_t i = 0; i < 5; ++i) {
        seeds.push_back(static_cast<NodeId>(rng.NextIndex(g.NumNodes())));
      }
      FrontierSample(oracle, seeds, budget, rng);
      crawls.push_back({"frontier", oracle.unique_queries()});
    }

    for (const Crawl& crawl : crawls) {
      EXPECT_LE(crawl.queries, budget)
          << crawl.name << " overspent with seed " << seed;
      EXPECT_GT(crawl.queries, 0u)
          << crawl.name << " queried nothing with seed " << seed;
    }
  }
}

TEST(OracleBudgetTest, RunExperimentEchoesOracleQueriesWithinBudget) {
  const CsrGraph g = TestGraph();
  ExperimentConfig config;
  config.query_fraction = 0.1;
  config.restoration.rewire.rewiring_coefficient = 5.0;
  config.property_options.max_path_sources = 20;
  const auto budget = static_cast<std::size_t>(
      config.query_fraction * static_cast<double>(g.NumNodes()));

  const GraphProperties properties =
      ComputeProperties(g, config.property_options);
  const auto results = RunExperiment(g, properties, config, /*run_seed=*/42);
  ASSERT_EQ(results.size(), 6u);
  for (const MethodRunResult& result : results) {
    EXPECT_LE(result.oracle_queries, budget);
    EXPECT_GT(result.oracle_queries, 0u);
    // A crawl can't have queried more distinct nodes than it took steps.
    EXPECT_LE(static_cast<double>(result.oracle_queries),
              result.sample_steps);
  }
  // The walk-based trio shares one sample, hence one query count.
  EXPECT_EQ(results[3].oracle_queries, results[4].oracle_queries);
  EXPECT_EQ(results[4].oracle_queries, results[5].oracle_queries);

  // oracle_queries is a deterministic function of (config, seed).
  const auto replay = RunExperiment(g, properties, config, /*run_seed=*/42);
  ASSERT_EQ(replay.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(replay[i].oracle_queries, results[i].oracle_queries);
  }
}

}  // namespace
}  // namespace sgr
