#include <gtest/gtest.h>

#include <type_traits>
#include <unordered_set>

#include "graph/generators.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"

#include "sample_helpers.h"

namespace sgr {
namespace {

// The oracle keeps a pointer to its snapshot: it reads only a CsrGraph,
// and one built from a temporary (which would dangle) does not compile.
static_assert(std::is_constructible_v<QueryOracle, const CsrGraph&>);
static_assert(!std::is_constructible_v<QueryOracle, CsrGraph>);
static_assert(!std::is_constructible_v<QueryOracle, const Graph&>);

Graph TestGraph() {
  Rng rng(100);
  return GeneratePowerlawCluster(500, 3, 0.4, rng);
}

TEST(QueryOracleTest, CountsUniqueQueries) {
  const CsrGraph g(GenerateCycle(5));
  QueryOracle oracle(g);
  oracle.Query(0);
  oracle.Query(0);
  oracle.Query(1);
  EXPECT_EQ(oracle.unique_queries(), 2u);
  EXPECT_EQ(oracle.HiddenNumNodes(), 5u);
}

TEST(RandomWalkTest, ReachesQueryBudget) {
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  Rng rng(1);
  const SamplingList list = RandomWalkSample(oracle, 0, 50, rng);
  EXPECT_TRUE(list.is_walk());
  EXPECT_EQ(list.NumQueried(), 50u);
  EXPECT_GE(list.Length(), 50u);
}

TEST(RandomWalkTest, ConsecutiveStepsAreNeighbors) {
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  Rng rng(2);
  const SamplingList list = RandomWalkSample(oracle, 3, 40, rng);
  for (std::size_t i = 0; i + 1 < list.Length(); ++i) {
    EXPECT_TRUE(
        g.HasEdge(list.OriginalId(list.Walk()[i]),
                  list.OriginalId(list.Walk()[i + 1])))
        << "walk step " << i << " is not an edge";
  }
}

TEST(RandomWalkTest, NeighborListsMatchGraph) {
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  Rng rng(3);
  const SamplingList list = RandomWalkSample(oracle, 7, 30, rng);
  for (std::uint32_t c = 0; c < list.NumQueried(); ++c) {
    EXPECT_EQ(list.Degree(c), g.Degree(list.OriginalId(c)));
  }
}

TEST(RandomWalkTest, MaxStepsCapStopsEarly) {
  const CsrGraph g(GenerateCycle(10));
  QueryOracle oracle(g);
  Rng rng(4);
  const SamplingList list = RandomWalkSample(oracle, 0, 1000, rng, 25);
  EXPECT_EQ(list.Length(), 25u);
}

TEST(BfsTest, ExploresByLayers) {
  const CsrGraph g(GeneratePath(10));
  QueryOracle oracle(g);
  const SamplingList list = BfsSample(oracle, 0, 4);
  ASSERT_EQ(list.NumQueried(), 4u);
  // From the path end, BFS queries 0,1,2,3 in order.
  EXPECT_EQ(Visits(list), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(BfsTest, QueriesAreDistinct) {
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  const SamplingList list = BfsSample(oracle, 5, 100);
  const std::vector<NodeId> visits = Visits(list);
  std::unordered_set<NodeId> unique(visits.begin(), visits.end());
  EXPECT_EQ(unique.size(), visits.size());
  EXPECT_EQ(list.NumQueried(), 100u);
}

TEST(BfsTest, StopsWhenComponentExhausted) {
  const CsrGraph g(GenerateCycle(6));
  QueryOracle oracle(g);
  const SamplingList list = BfsSample(oracle, 0, 100);
  EXPECT_EQ(list.NumQueried(), 6u);
}

TEST(SnowballTest, RespectsBudget) {
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  Rng rng(5);
  const SamplingList list = SnowballSample(oracle, 0, 60, 50, rng);
  EXPECT_EQ(list.NumQueried(), 60u);
  EXPECT_FALSE(list.is_walk());
}

TEST(SnowballTest, NeighborCapLimitsFanout) {
  // On a star, snowball with cap 2 from the hub can still revive through
  // discovered leaves, but each queried node records its true neighbors.
  const CsrGraph g(GenerateStar(20));
  QueryOracle oracle(g);
  Rng rng(6);
  const SamplingList list = SnowballSample(oracle, 0, 3, 2, rng);
  EXPECT_EQ(list.NumQueried(), 3u);
  EXPECT_EQ(list.Degree(QueriedId(list, 0)), 19u);
}

TEST(SnowballTest, ExhaustsSmallGraph) {
  const CsrGraph g(GenerateComplete(8));
  QueryOracle oracle(g);
  Rng rng(7);
  const SamplingList list = SnowballSample(oracle, 0, 100, 3, rng);
  EXPECT_EQ(list.NumQueried(), 8u);
}

TEST(ForestFireTest, RespectsBudget) {
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  Rng rng(8);
  const SamplingList list = ForestFireSample(oracle, 0, 80, 0.7, rng);
  EXPECT_EQ(list.NumQueried(), 80u);
}

TEST(ForestFireTest, RevivesAfterBurnout) {
  // pf = 0 means the fire never spreads; every step must revive, and the
  // budget must still be reached on a connected graph.
  const CsrGraph g(TestGraph());
  QueryOracle oracle(g);
  Rng rng(9);
  const SamplingList list = ForestFireSample(oracle, 0, 20, 0.0, rng);
  EXPECT_EQ(list.NumQueried(), 20u);
}

TEST(ForestFireTest, ExhaustsSmallGraph) {
  const CsrGraph g(GenerateComplete(5));
  QueryOracle oracle(g);
  Rng rng(10);
  const SamplingList list = ForestFireSample(oracle, 0, 50, 0.7, rng);
  EXPECT_EQ(list.NumQueried(), 5u);
}

class CrawlBudgetTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrawlBudgetTest, AllCrawlersHitExactBudget) {
  const std::size_t budget = GetParam();
  const CsrGraph g(TestGraph());
  Rng rng(budget);
  {
    QueryOracle oracle(g);
    EXPECT_EQ(BfsSample(oracle, 1, budget).NumQueried(), budget);
  }
  {
    QueryOracle oracle(g);
    EXPECT_EQ(SnowballSample(oracle, 1, budget, 50, rng).NumQueried(),
              budget);
  }
  {
    QueryOracle oracle(g);
    EXPECT_EQ(ForestFireSample(oracle, 1, budget, 0.7, rng).NumQueried(),
              budget);
  }
  {
    QueryOracle oracle(g);
    EXPECT_EQ(RandomWalkSample(oracle, 1, budget, rng).NumQueried(), budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CrawlBudgetTest,
                         ::testing::Values(5, 25, 100, 250));

}  // namespace
}  // namespace sgr
