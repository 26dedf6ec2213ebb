#include "restore/target_jdm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "exp/datasets.h"
#include "graph/generators.h"
#include "restore/target_degree_vector.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"
#include "util/sorted_keys.h"

#include "jdm_entries.h"

namespace sgr {
namespace {

TEST(TargetJdmTest, DeltaInfiniteWithoutMass) {
  LocalEstimates est;
  est.num_nodes = 10;
  est.average_degree = 2;
  EXPECT_TRUE(std::isinf(JdmDelta(est, 2, 3, 0, +1)));
}

TEST(TargetJdmTest, DeltaSignsTrackEstimate) {
  LocalEstimates est;
  est.num_nodes = 10;
  est.average_degree = 2;
  est.joint_dist.SetSymmetric(1, 2, 0.5);  // m̂(1,2) = 10
  EXPECT_LT(JdmDelta(est, 1, 2, 5, +1), 0.0);   // 5 -> 6 approaches 10
  EXPECT_GT(JdmDelta(est, 1, 2, 15, +1), 0.0);  // 15 -> 16 recedes
  EXPECT_LT(JdmDelta(est, 1, 2, 15, -1), 0.0);  // 15 -> 14 approaches
  EXPECT_GT(JdmDelta(est, 1, 2, 5, -1), 0.0);   // 5 -> 4 recedes
}

TEST(TargetJdmTest, EstimatesOnlySatisfiesJdm123) {
  // Hand-built consistent estimates.
  LocalEstimates est;
  est.num_nodes = 12.0;
  est.average_degree = 2.0;
  est.degree_dist = {0.0, 0.5, 0.25, 0.25};
  est.joint_dist.SetSymmetric(1, 2, 0.25);
  est.joint_dist.SetSymmetric(1, 3, 0.25);
  est.joint_dist.SetSymmetric(2, 3, 0.25);
  est.joint_dist.SetSymmetric(3, 3, 0.125);
  est.joint_dist.SetSymmetric(2, 2, 0.125);
  TargetDegreeVectorResult dv = BuildTargetDegreeVectorFromEstimates(est);
  Rng rng(70);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, dv.n_star, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm1());
  EXPECT_TRUE(m_star.SatisfiesJdm2());
  EXPECT_TRUE(m_star.SatisfiesJdm3(dv.n_star));
}

class TargetJdmWalkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TargetJdmWalkTest, FullPipelineSatisfiesAllConditions) {
  Rng gen_rng(GetParam());
  const CsrGraph g(GeneratePowerlawCluster(700, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(GetParam() + 5000);
  const SamplingList list = RandomWalkSample(oracle, 0, 70, rng);
  const Subgraph sub = BuildSubgraph(list);
  const LocalEstimates est = EstimateLocalProperties(list);
  TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, dv.n_star, m_prime, rng);

  EXPECT_TRUE(m_star.SatisfiesJdm1());
  EXPECT_TRUE(m_star.SatisfiesJdm2());
  EXPECT_TRUE(m_star.SatisfiesJdm3(dv.n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime)) << "JDM-4 violated";

  // The degree vector still satisfies its own conditions after any growth
  // by Algorithm 3.
  EXPECT_TRUE(SatisfiesDv1(dv.n_star));
  EXPECT_TRUE(SatisfiesDv2(dv.n_star));

  // And the full target pair must be realizable around the subgraph (the
  // ultimate acceptance test: Algorithm 5 succeeds).
  EXPECT_NO_THROW({
    const Graph built = ConstructPreservingTargets(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, rng);
    (void)built;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, TargetJdmWalkTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Dense reference for Algorithms 3-4: the grid scans the row-support kernels
// in target_jdm.cc replaced, kept verbatim so the differential test below
// can require the same m*, the same n* and the same RNG stream.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

JointDegreeMatrix ReferenceInitializeJdm(const LocalEstimates& est) {
  JointDegreeMatrix m_star;
  for (const std::uint64_t key : SortedKeys(est.joint_dist.values())) {
    const double p = est.joint_dist.values().at(key);
    if (p <= 0.0) continue;
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (k > kp) continue;
    const std::int64_t value = std::max<std::int64_t>(
        std::llround(est.EstimatedEdgeCount(k, kp)), 1);
    m_star.SetSymmetric(k, kp, value);
  }
  return m_star;
}

std::uint32_t ReferencePick(const std::vector<std::uint32_t>& candidates,
                            Rng& rng) {
  return candidates[rng.NextIndex(candidates.size())];
}

void ReferenceAdjustJdm(const LocalEstimates& est, DegreeVector& n_star,
                        JointDegreeMatrix& m_star,
                        const JointDegreeMatrix& m_min, Rng& rng) {
  const auto k_max = static_cast<std::uint32_t>(n_star.size() - 1);
  std::vector<std::int64_t> s(k_max + 1, 0);
  for (std::uint32_t k = 1; k <= k_max; ++k) s[k] = m_star.RowSum(k);
  std::vector<std::int64_t> s_star(k_max + 1, 0);
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    s_star[k] = static_cast<std::int64_t>(k) * n_star[k];
  }
  std::vector<std::uint32_t> d_set;
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    if (s[k] != s_star[k] || k == 1) d_set.push_back(k);
  }
  for (auto it = d_set.rbegin(); it != d_set.rend(); ++it) {
    const std::uint32_t k = *it;
    if (k == 1 && (std::llabs(s[1] - s_star[1]) % 2) == 1) {
      ++n_star[1];
      s_star[1] += 1;
    }
    while (s[k] != s_star[k]) {
      if (s[k] < s_star[k]) {
        const bool exclude_self = (s[k] == s_star[k] - 1);
        double best = kInf;
        std::vector<std::uint32_t> best_set;
        for (std::uint32_t kp : d_set) {
          if (kp > k) break;
          if (exclude_self && kp == k) continue;
          const double delta = JdmDelta(est, k, kp, m_star.At(k, kp), +1);
          if (delta < best - 1e-15) {
            best = delta;
            best_set.assign(1, kp);
          } else if (delta <= best + 1e-15) {
            best_set.push_back(kp);
          }
        }
        const std::uint32_t kp = ReferencePick(best_set, rng);
        m_star.AddSymmetric(k, kp, +1);
        s[k] += (kp == k) ? 2 : 1;
        if (kp != k) s[kp] += 1;
      } else {
        const bool exclude_self = (s[k] == s_star[k] + 1);
        double best = kInf;
        std::vector<std::uint32_t> best_set;
        for (std::uint32_t kp : d_set) {
          if (kp > k) break;
          if (exclude_self && kp == k) continue;
          if (m_star.At(k, kp) <= m_min.At(k, kp)) continue;
          const double delta = JdmDelta(est, k, kp, m_star.At(k, kp), -1);
          if (delta < best - 1e-15) {
            best = delta;
            best_set.assign(1, kp);
          } else if (delta <= best + 1e-15) {
            best_set.push_back(kp);
          }
        }
        if (!best_set.empty()) {
          const std::uint32_t kp = ReferencePick(best_set, rng);
          m_star.AddSymmetric(k, kp, -1);
          s[k] -= (kp == k) ? 2 : 1;
          if (kp != k) s[kp] -= 1;
        } else if (k > 1) {
          ++n_star[k];
          s_star[k] += k;
        } else {
          n_star[1] += 2;
          s_star[1] += 2;
        }
      }
    }
  }
}

void ReferenceModifyJdm(const LocalEstimates& est, std::uint32_t k_max,
                        JointDegreeMatrix& m_star,
                        const JointDegreeMatrix& m_prime, Rng& rng) {
  auto pick_decrement = [&](std::uint32_t k, std::uint32_t& out) {
    double best = kInf;
    std::vector<std::uint32_t> best_set;
    for (std::uint32_t kp = 1; kp <= k_max; ++kp) {
      if (kp == k) continue;
      if (m_star.At(k, kp) <= m_prime.At(k, kp)) continue;
      const double delta = JdmDelta(est, k, kp, m_star.At(k, kp), -1);
      if (delta < best - 1e-15) {
        best = delta;
        best_set.assign(1, kp);
      } else if (delta <= best + 1e-15) {
        best_set.push_back(kp);
      }
    }
    if (best_set.empty()) return false;
    out = ReferencePick(best_set, rng);
    return true;
  };
  for (std::uint32_t k1 = 1; k1 <= k_max; ++k1) {
    for (std::uint32_t k2 = k1; k2 <= k_max; ++k2) {
      while (m_star.At(k1, k2) < m_prime.At(k1, k2)) {
        m_star.AddSymmetric(k1, k2, +1);
        std::uint32_t k3 = 0;
        std::uint32_t k4 = 0;
        const bool found3 = pick_decrement(k1, k3);
        if (found3) m_star.AddSymmetric(k1, k3, -1);
        const bool found4 = pick_decrement(k2, k4);
        if (found4) m_star.AddSymmetric(k2, k4, -1);
        if (found3 && found4) m_star.AddSymmetric(k3, k4, +1);
      }
    }
  }
}

/// BuildTargetJdm (with `m_prime`) or BuildTargetJdmFromEstimates (without)
/// on the dense reference.
JointDegreeMatrix ReferenceBuildTargetJdm(const LocalEstimates& est,
                                          DegreeVector& n_star,
                                          const JointDegreeMatrix* m_prime,
                                          Rng& rng) {
  JointDegreeMatrix m_star = ReferenceInitializeJdm(est);
  ReferenceAdjustJdm(est, n_star, m_star, JointDegreeMatrix(), rng);
  if (m_prime == nullptr) return m_star;
  ReferenceModifyJdm(est, static_cast<std::uint32_t>(n_star.size() - 1),
                     m_star, *m_prime, rng);
  const auto k_max = std::max<std::uint32_t>(
      m_star.MaxDegree(), static_cast<std::uint32_t>(n_star.size() - 1));
  bool jdm3 = true;
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    const std::int64_t target =
        k < n_star.size() ? static_cast<std::int64_t>(k) * n_star[k] : 0;
    jdm3 = jdm3 && m_star.RowSum(k) == target;
  }
  if (!jdm3) ReferenceAdjustJdm(est, n_star, m_star, *m_prime, rng);
  return m_star;
}

/// Runs the library and the reference from the same state and requires the
/// same n*, the same m* entries and the same next draw of `rng`.
void ExpectMatchesReference(const LocalEstimates& est,
                            const DegreeVector& n_star,
                            const JointDegreeMatrix* m_prime,
                            std::uint64_t seed, const std::string& label) {
  SCOPED_TRACE(label);
  DegreeVector n_fast = n_star;
  DegreeVector n_slow = n_star;
  Rng rng_fast(seed);
  Rng rng_slow(seed);
  const JointDegreeMatrix fast =
      m_prime == nullptr ? BuildTargetJdmFromEstimates(est, n_fast, rng_fast)
                         : BuildTargetJdm(est, n_fast, *m_prime, rng_fast);
  const JointDegreeMatrix slow =
      ReferenceBuildTargetJdm(est, n_slow, m_prime, rng_slow);
  EXPECT_EQ(n_fast, n_slow);
  EXPECT_EQ(JdmEntries(fast), JdmEntries(slow));
  EXPECT_EQ(rng_fast.engine()(), rng_slow.engine()());
}

TEST(TargetJdmTest, MatchesDenseReference) {
  // Seeded walks over three stand-ins at two walk lengths: the rows the
  // pipeline really builds, with their ties, all-infinite rows and
  // subgraph-only class pairs.
  const char* const names[] = {"anybeat", "brightkite", "livemocha"};
  for (const char* name : names) {
    const CsrGraph g = GenerateDataset(DatasetByName(name), 0.5);
    for (const double fraction : {0.05, 0.2}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        QueryOracle oracle(g);
        Rng rng(seed);
        const auto queries = static_cast<std::size_t>(
            fraction * static_cast<double>(g.NumNodes()));
        const SamplingList list = RandomWalkSample(
            oracle, static_cast<NodeId>(rng.NextIndex(g.NumNodes())),
            queries, rng);
        const Subgraph sub = BuildSubgraph(list);
        const LocalEstimates est = EstimateLocalProperties(list);
        const std::string label = std::string(name) + " fraction " +
                                  std::to_string(fraction) + " seed " +
                                  std::to_string(seed);
        const TargetDegreeVectorResult dv =
            BuildTargetDegreeVector(sub, est, rng);
        const JointDegreeMatrix m_prime =
            SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
        ExpectMatchesReference(est, dv.n_star, &m_prime, seed + 100,
                               label + " proposed");
        ExpectMatchesReference(
            est, BuildTargetDegreeVectorFromEstimates(est).n_star, nullptr,
            seed + 200, label + " gjoka");
      }
    }
  }
}

TEST(TargetJdmTest, MatchesDenseReferenceOnHandBuiltRows) {
  {
    // Ties: six classes with near-equal P̂. The 1e-17 steps move m̂ by a
    // few ulps, so equal counts give deltas a few 1e-16 apart, inside the
    // ±1e-15 window: which candidates tie, and which one is picked,
    // depends on the window and on the ascending candidate order.
    LocalEstimates est;
    est.num_nodes = 40.0;
    est.average_degree = 3.0;
    est.degree_dist = {0.0, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1};
    for (std::uint32_t k = 1; k <= 6; ++k) {
      for (std::uint32_t kp = k; kp <= 6; ++kp) {
        est.joint_dist.SetSymmetric(k, kp, (k == kp ? 0.04 : 0.02) +
                                               1e-17 * (k + kp));
      }
    }
    JointDegreeMatrix m_prime;
    m_prime.SetSymmetric(2, 5, 6);
    m_prime.SetSymmetric(3, 3, 5);
    m_prime.SetSymmetric(1, 6, 4);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      ExpectMatchesReference(est, {0, 9, 7, 8, 6, 5, 4}, &m_prime, seed,
                             "ties seed " + std::to_string(seed));
      ExpectMatchesReference(est, {0, 9, 7, 8, 6, 5, 4}, nullptr, seed,
                             "ties estimates-only seed " +
                                 std::to_string(seed));
    }
  }
  {
    // All-infinite rows: P̂ is zero everywhere in rows 3 and 4, so
    // Algorithm 3 fills them through candidates whose every delta is
    // +infinity, and Algorithm 4 must then decrement rows whose only
    // entries above m' have P̂ = 0. m'(3,4) and m'(4,4) are absent from
    // the initial m*.
    LocalEstimates est;
    est.num_nodes = 30.0;
    est.average_degree = 2.0;
    est.degree_dist = {0.0, 0.5, 0.3, 0.1, 0.1};
    est.joint_dist.SetSymmetric(1, 2, 0.3);
    est.joint_dist.SetSymmetric(2, 2, 0.1);
    est.joint_dist.SetSymmetric(1, 1, 0.05);
    JointDegreeMatrix m_prime;
    m_prime.SetSymmetric(3, 4, 3);
    m_prime.SetSymmetric(4, 4, 2);
    m_prime.SetSymmetric(1, 2, 2);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      ExpectMatchesReference(est, {0, 12, 9, 4, 5}, &m_prime, seed,
                             "infinite seed " + std::to_string(seed));
    }
  }
  {
    // Subgraph-only class pairs: m' names pairs (2,5), (5,5) and (1,4)
    // with P̂ = 0, which initialization never creates; Algorithm 4 must
    // visit them although they are outside m*'s support.
    LocalEstimates est;
    est.num_nodes = 50.0;
    est.average_degree = 2.4;
    est.degree_dist = {0.0, 0.4, 0.3, 0.15, 0.1, 0.05};
    est.joint_dist.SetSymmetric(1, 2, 0.2);
    est.joint_dist.SetSymmetric(1, 3, 0.15);
    est.joint_dist.SetSymmetric(2, 3, 0.1);
    est.joint_dist.SetSymmetric(2, 4, 0.1);
    est.joint_dist.SetSymmetric(3, 5, 0.05);
    est.joint_dist.SetSymmetric(4, 4, 0.05);
    JointDegreeMatrix m_prime;
    m_prime.SetSymmetric(2, 5, 2);
    m_prime.SetSymmetric(5, 5, 1);
    m_prime.SetSymmetric(1, 4, 3);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      ExpectMatchesReference(est, {0, 20, 15, 8, 5, 3}, &m_prime, seed,
                             "subgraph-only seed " + std::to_string(seed));
    }
  }
}

TEST(TargetJdmTest, GjokaVariantRealizableFromEmpty) {
  Rng gen_rng(71);
  const CsrGraph g(GeneratePowerlawCluster(600, 3, 0.4, gen_rng));
  QueryOracle oracle(g);
  Rng rng(72);
  const SamplingList list = RandomWalkSample(oracle, 0, 80, rng);
  const LocalEstimates est = EstimateLocalProperties(list);
  TargetDegreeVectorResult dv = BuildTargetDegreeVectorFromEstimates(est);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, dv.n_star, rng);
  EXPECT_NO_THROW({
    const Graph built = Construct2kGraph(dv.n_star, m_star, rng);
    EXPECT_EQ(static_cast<std::int64_t>(built.NumNodes()),
              DegreeVectorNodes(dv.n_star));
  });
}

TEST(TargetJdmTest, EdgeTotalsStayNearEstimate) {
  Rng gen_rng(73);
  const CsrGraph g(GeneratePowerlawCluster(800, 4, 0.3, gen_rng));
  QueryOracle oracle(g);
  Rng rng(74);
  const SamplingList list = RandomWalkSample(oracle, 0, 200, rng);
  const LocalEstimates est = EstimateLocalProperties(list);
  TargetDegreeVectorResult dv = BuildTargetDegreeVectorFromEstimates(est);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, dv.n_star, rng);
  const double m_hat = est.num_nodes * est.average_degree / 2.0;
  EXPECT_NEAR(static_cast<double>(m_star.TotalEdges()), m_hat,
              0.5 * m_hat);
}

}  // namespace
}  // namespace sgr
