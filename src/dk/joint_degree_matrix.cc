#include "dk/joint_degree_matrix.h"

#include <algorithm>
#include <cassert>

namespace sgr {

namespace {

/// First entry of `row` with k' >= `k_prime`. Each halving step is a
/// conditional move: std::lower_bound's data-dependent branch mispredicts
/// about once per step, which doubled the cost of SubgraphClassEdges.
template <typename Row>
auto LowerBound(Row& row, std::uint32_t k_prime) {
  std::size_t lo = 0;
  std::size_t n = row.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    lo = row[lo + half].k_prime < k_prime ? lo + half : lo;
    n -= half;
  }
  const bool past = n == 1 && row[lo].k_prime < k_prime;
  return row.begin() + static_cast<std::ptrdiff_t>(lo + past);
}

}  // namespace

std::int64_t JointDegreeMatrix::At(std::uint32_t k,
                                   std::uint32_t k_prime) const {
  const std::vector<JdmEntry>& row = Row(k);
  const auto it = LowerBound(row, k_prime);
  return it == row.end() || it->k_prime != k_prime ? 0 : it->count;
}

const std::vector<JdmEntry>& JointDegreeMatrix::Row(std::uint32_t k) const {
  static const std::vector<JdmEntry> kEmptyRow;
  return k < rows_.size() ? rows_[k] : kEmptyRow;
}

void JointDegreeMatrix::AddEntry(std::uint32_t k, std::uint32_t k_prime,
                                 std::int64_t delta) {
  if (k >= rows_.size()) rows_.resize(static_cast<std::size_t>(k) + 1);
  std::vector<JdmEntry>& row = rows_[k];
  auto it = LowerBound(row, k_prime);
  if (it == row.end() || it->k_prime != k_prime) {
    it = row.insert(it, {k_prime, 0});
  }
  it->count += delta;
  assert(it->count >= 0 && "joint degree matrix entry went negative");
  if (it->count == 0) row.erase(it);
}

void JointDegreeMatrix::AddSymmetric(std::uint32_t k, std::uint32_t k_prime,
                                     std::int64_t delta) {
  if (delta == 0) return;
  AddEntry(k, k_prime, delta);
  if (k != k_prime) AddEntry(k_prime, k, delta);
}

void JointDegreeMatrix::SetSymmetric(std::uint32_t k, std::uint32_t k_prime,
                                     std::int64_t value) {
  assert(value >= 0);
  AddSymmetric(k, k_prime, value - At(k, k_prime));
}

std::int64_t JointDegreeMatrix::RowSum(std::uint32_t k) const {
  std::int64_t sum = 0;
  for (const JdmEntry& e : Row(k)) sum += (e.k_prime == k ? 2 : 1) * e.count;
  return sum;
}

std::vector<std::int64_t> JointDegreeMatrix::RowSums(
    std::uint32_t k_max) const {
  std::vector<std::int64_t> sums(static_cast<std::size_t>(k_max) + 1, 0);
  for (std::uint32_t k = 0; k <= k_max && k < rows_.size(); ++k) {
    sums[k] = RowSum(k);
  }
  return sums;
}

std::int64_t JointDegreeMatrix::TotalEdges() const {
  std::int64_t total = 0;
  for (std::uint32_t k = 0; k < rows_.size(); ++k) {
    for (const JdmEntry& e : rows_[k]) {
      if (k <= e.k_prime) total += e.count;
    }
  }
  return total;
}

std::uint32_t JointDegreeMatrix::MaxDegree() const {
  for (std::size_t k = rows_.size(); k > 0; --k) {
    for (const JdmEntry& e : rows_[k - 1]) {
      if (e.count > 0) return static_cast<std::uint32_t>(k - 1);
    }
  }
  return 0;
}

bool JointDegreeMatrix::SatisfiesJdm1() const {
  for (const std::vector<JdmEntry>& row : rows_) {
    for (const JdmEntry& e : row) {
      if (e.count < 0) return false;
    }
  }
  return true;
}

bool JointDegreeMatrix::SatisfiesJdm2() const {
  for (std::uint32_t k = 0; k < rows_.size(); ++k) {
    for (const JdmEntry& e : rows_[k]) {
      if (At(e.k_prime, k) != e.count) return false;
    }
  }
  return true;
}

bool JointDegreeMatrix::SatisfiesJdm3(const DegreeVector& dv) const {
  const std::uint32_t k_max =
      std::max(MaxDegree(), static_cast<std::uint32_t>(
                                dv.empty() ? 0 : dv.size() - 1));
  const std::vector<std::int64_t> sums = RowSums(k_max);
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    const std::int64_t target =
        k < dv.size() ? static_cast<std::int64_t>(k) * dv[k] : 0;
    if (sums[k] != target) return false;
  }
  return true;
}

bool JointDegreeMatrix::Dominates(const JointDegreeMatrix& lower) const {
  for (std::uint32_t k = 0; k < lower.NumRows(); ++k) {
    for (const JdmEntry& e : lower.Row(k)) {
      if (At(k, e.k_prime) < e.count) return false;
    }
  }
  return true;
}

}  // namespace sgr
