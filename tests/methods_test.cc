#include <gtest/gtest.h>

#include "graph/generators.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

namespace sgr {
namespace {

struct Sampled {
  CsrGraph original;
  SamplingList walk;
};

Sampled MakeSample(std::uint64_t seed, std::size_t n = 600,
                   std::size_t budget = 60) {
  Sampled s;
  Rng gen_rng(seed);
  s.original = CsrGraph(GeneratePowerlawCluster(n, 3, 0.4, gen_rng));
  QueryOracle oracle(s.original);
  Rng rng(seed + 999);
  s.walk = RandomWalkSample(oracle, 0, budget, rng);
  return s;
}

RestorationOptions FastOptions() {
  RestorationOptions options;
  options.rewire.rewiring_coefficient = 10.0;  // keep tests quick
  return options;
}

TEST(MethodsTest, MethodNamesMatchPaperColumns) {
  EXPECT_EQ(MethodName(MethodKind::kBfs), "BFS");
  EXPECT_EQ(MethodName(MethodKind::kSnowball), "Snowball");
  EXPECT_EQ(MethodName(MethodKind::kForestFire), "FF");
  EXPECT_EQ(MethodName(MethodKind::kRandomWalk), "RW");
  EXPECT_EQ(MethodName(MethodKind::kGjoka), "Gjoka et al.");
  EXPECT_EQ(MethodName(MethodKind::kProposed), "Proposed");
}

TEST(MethodsTest, SubgraphSamplingReturnsSubgraph) {
  const Sampled s = MakeSample(1);
  const RestorationResult r = RestoreBySubgraphSampling(s.walk);
  EXPECT_EQ(r.graph.NumNodes(), r.subgraph_nodes);
  EXPECT_EQ(r.graph.NumEdges(), r.subgraph_edges);
  EXPECT_EQ(r.subgraph_queried, s.walk.NumQueried());
  EXPECT_TRUE(CsrGraph(r.graph).IsSimple());
}

TEST(MethodsTest, ProposedContainsSubgraphEdges) {
  const Sampled s = MakeSample(2);
  Rng rng(3);
  const RestorationResult r = RestoreProposed(s.walk, FastOptions(), rng);
  // The first |E'| edges of the generated graph are exactly the subgraph's
  // (Algorithm 5 starts from G', and rewiring never touches them).
  const Subgraph sub = BuildSubgraph(s.walk);
  ASSERT_GE(r.graph.NumEdges(), sub.graph.NumEdges());
  for (EdgeId e = 0; e < sub.graph.NumEdges(); ++e) {
    EXPECT_EQ(r.graph.edge(e).u, sub.graph.edge(e).u);
    EXPECT_EQ(r.graph.edge(e).v, sub.graph.edge(e).v);
  }
}

TEST(MethodsTest, ProposedNodeCountNearEstimate) {
  const Sampled s = MakeSample(4, 800, 120);
  Rng rng(5);
  const RestorationResult r = RestoreProposed(s.walk, FastOptions(), rng);
  // Generated n should be within a loose factor of n̂ (targets may grow
  // slightly during adjustment).
  EXPECT_GT(static_cast<double>(r.graph.NumNodes()),
            0.7 * r.estimates.num_nodes);
  EXPECT_LT(static_cast<double>(r.graph.NumNodes()),
            1.5 * r.estimates.num_nodes);
}

TEST(MethodsTest, ProposedQueriedDegreesAreExact) {
  const Sampled s = MakeSample(6);
  Rng rng(7);
  const RestorationResult r = RestoreProposed(s.walk, FastOptions(), rng);
  // Queried nodes keep their true degree in G~: subgraph node ids are the
  // first ids of the generated graph, in subgraph order.
  const Subgraph sub = BuildSubgraph(s.walk);
  for (NodeId v = 0; v < sub.graph.NumNodes(); ++v) {
    if (!sub.is_queried[v]) continue;
    EXPECT_EQ(r.graph.Degree(v), s.original.Degree(sub.to_original[v]))
        << "queried node " << v;
  }
}

TEST(MethodsTest, GjokaIgnoresSubgraphStructure) {
  const Sampled s = MakeSample(8);
  Rng rng(9);
  const RestorationResult r = RestoreGjoka(s.walk, FastOptions(), rng);
  EXPECT_GT(r.graph.NumNodes(), 0u);
  EXPECT_GT(r.graph.NumEdges(), 0u);
  // Diagnostics still report the subgraph sizes.
  EXPECT_EQ(r.subgraph_queried, s.walk.NumQueried());
}

TEST(MethodsTest, TimingFieldsArePopulated) {
  const Sampled s = MakeSample(10);
  Rng rng(11);
  const RestorationResult r = RestoreProposed(s.walk, FastOptions(), rng);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GE(r.total_seconds, r.rewiring_seconds);
  EXPECT_GT(r.rewire_stats.attempts, 0u);
}

TEST(MethodsTest, ProposedRewiresFewerCandidatesThanGjoka) {
  const Sampled s = MakeSample(12);
  Rng rng1(13);
  Rng rng2(13);
  const RestorationResult proposed =
      RestoreProposed(s.walk, FastOptions(), rng1);
  const RestorationResult gjoka = RestoreGjoka(s.walk, FastOptions(), rng2);
  // Same RC, but the proposed method excludes |E'| edges from the
  // candidate set, so it attempts strictly fewer swaps when graphs have
  // comparable size (Section IV-E's running-time claim).
  EXPECT_LT(static_cast<double>(proposed.rewire_stats.attempts),
            static_cast<double>(gjoka.rewire_stats.attempts) * 1.05);
}

TEST(MethodsTest, DeterministicGivenSeeds) {
  const Sampled s = MakeSample(14);
  Rng rng1(15);
  Rng rng2(15);
  const RestorationResult a = RestoreProposed(s.walk, FastOptions(), rng1);
  const RestorationResult b = RestoreProposed(s.walk, FastOptions(), rng2);
  ASSERT_EQ(a.graph.NumNodes(), b.graph.NumNodes());
  ASSERT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  for (EdgeId e = 0; e < a.graph.NumEdges(); ++e) {
    EXPECT_EQ(a.graph.edge(e).u, b.graph.edge(e).u);
    EXPECT_EQ(a.graph.edge(e).v, b.graph.edge(e).v);
  }
}

}  // namespace
}  // namespace sgr
