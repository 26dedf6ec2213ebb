#include "dk/joint_degree_matrix.h"

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

#include "jdm_entries.h"

namespace sgr {
namespace {

TEST(JdmTest, AddSymmetricMaintainsBothOrderings) {
  JointDegreeMatrix m;
  m.AddSymmetric(2, 5, 3);
  EXPECT_EQ(m.At(2, 5), 3);
  EXPECT_EQ(m.At(5, 2), 3);
  EXPECT_EQ(m.At(5, 5), 0);
}

TEST(JdmTest, DiagonalIsSingleEntry) {
  JointDegreeMatrix m;
  m.AddSymmetric(4, 4, 2);
  EXPECT_EQ(m.At(4, 4), 2);
  EXPECT_EQ(JdmEntries(m).size(), 1u);
}

TEST(JdmTest, ZeroEntriesAreErased) {
  JointDegreeMatrix m;
  m.AddSymmetric(1, 2, 2);
  m.AddSymmetric(1, 2, -2);
  EXPECT_TRUE(JdmEntries(m).empty());
}

TEST(JdmTest, SetSymmetricOverwrites) {
  JointDegreeMatrix m;
  m.SetSymmetric(3, 7, 5);
  m.SetSymmetric(3, 7, 1);
  EXPECT_EQ(m.At(7, 3), 1);
  m.SetSymmetric(3, 7, 0);
  EXPECT_TRUE(JdmEntries(m).empty());
}

TEST(JdmTest, RowSumUsesMuFactor) {
  JointDegreeMatrix m;
  m.AddSymmetric(2, 2, 3);  // diagonal: µ = 2
  m.AddSymmetric(2, 5, 4);  // off-diagonal: µ = 1
  EXPECT_EQ(m.RowSum(2), 2 * 3 + 4);
  EXPECT_EQ(m.RowSum(5), 4);
  EXPECT_EQ(m.RowSum(9), 0);
}

TEST(JdmTest, TotalEdgesCountsUnorderedPairs) {
  JointDegreeMatrix m;
  m.AddSymmetric(1, 2, 3);
  m.AddSymmetric(2, 2, 5);
  EXPECT_EQ(m.TotalEdges(), 8);
}

TEST(JdmTest, MaxDegree) {
  JointDegreeMatrix m;
  EXPECT_EQ(m.MaxDegree(), 0u);
  m.AddSymmetric(3, 11, 1);
  EXPECT_EQ(m.MaxDegree(), 11u);
}

TEST(JdmTest, Jdm3AgainstDegreeVector) {
  // Path P3: degrees 1,2,1. m(1,2) = 2.
  JointDegreeMatrix m;
  m.AddSymmetric(1, 2, 2);
  const DegreeVector dv = {0, 2, 1};
  EXPECT_TRUE(m.SatisfiesJdm3(dv));
  // Wrong vector: fails.
  const DegreeVector bad = {0, 3, 1};
  EXPECT_FALSE(m.SatisfiesJdm3(bad));
}

TEST(JdmTest, Jdm3WithDiagonal) {
  // Triangle K3: degrees 2,2,2; m(2,2) = 3; s(2) = 6 = 2 * 3.
  JointDegreeMatrix m;
  m.AddSymmetric(2, 2, 3);
  EXPECT_TRUE(m.SatisfiesJdm3({0, 0, 3}));
}

TEST(JdmTest, DominatesComparesEntrywise) {
  JointDegreeMatrix hi;
  hi.AddSymmetric(1, 2, 3);
  hi.AddSymmetric(2, 2, 1);
  JointDegreeMatrix lo;
  lo.AddSymmetric(1, 2, 2);
  EXPECT_TRUE(hi.Dominates(lo));
  EXPECT_FALSE(lo.Dominates(hi));
  lo.AddSymmetric(3, 3, 1);
  EXPECT_FALSE(hi.Dominates(lo));
}

TEST(JdmTest, SymmetryInvariant) {
  JointDegreeMatrix m;
  m.AddSymmetric(1, 4, 2);
  m.AddSymmetric(4, 4, 1);
  m.AddSymmetric(1, 1, 7);
  EXPECT_TRUE(m.SatisfiesJdm1());
  EXPECT_TRUE(m.SatisfiesJdm2());
}

TEST(JdmTest, RowsMatchOrderedReferenceUnderRandomUpdates) {
  // A seeded mix of AddSymmetric/SetSymmetric against an ordered map that
  // holds both orderings of every non-zero entry.
  constexpr std::uint32_t kDegrees = 12;
  Rng rng(17);
  JointDegreeMatrix m;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> ref;
  for (int step = 0; step < 3000; ++step) {
    const auto k = static_cast<std::uint32_t>(rng.NextIndex(kDegrees));
    const auto kp = static_cast<std::uint32_t>(rng.NextIndex(kDegrees));
    const auto found = ref.find({k, kp});
    const std::int64_t current = found == ref.end() ? 0 : found->second;
    std::int64_t next = 0;
    if (rng.NextIndex(2) == 0) {
      const std::int64_t delta = rng.NextInt(-current, 3);
      m.AddSymmetric(k, kp, delta);
      next = current + delta;
    } else {
      next = rng.NextInt(0, 3);
      m.SetSymmetric(k, kp, next);
    }
    for (const auto& key : {std::make_pair(k, kp), std::make_pair(kp, k)}) {
      if (next == 0) {
        ref.erase(key);
      } else {
        ref[key] = next;
      }
    }
  }
  ASSERT_FALSE(ref.empty());

  // Same entries in the same order: rows ascending in k', no zero entry
  // kept, both orderings present.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::int64_t>>
      expected;
  std::vector<std::int64_t> sums(kDegrees, 0);
  std::int64_t total = 0;
  for (const auto& [key, count] : ref) {
    expected.emplace_back(key.first, key.second, count);
    sums[key.first] += (key.first == key.second ? 2 : 1) * count;
    if (key.first <= key.second) total += count;
  }
  EXPECT_EQ(JdmEntries(m), expected);
  EXPECT_TRUE(m.SatisfiesJdm2());
  EXPECT_EQ(m.RowSums(kDegrees - 1), sums);
  for (std::uint32_t k = 0; k < kDegrees; ++k) {
    EXPECT_EQ(m.RowSum(k), sums[k]) << "row " << k;
  }
  EXPECT_EQ(m.TotalEdges(), total);
}

}  // namespace
}  // namespace sgr
