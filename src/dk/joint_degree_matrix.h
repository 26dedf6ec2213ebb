#ifndef SGR_DK_JOINT_DEGREE_MATRIX_H_
#define SGR_DK_JOINT_DEGREE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dk/degree_vector.h"

namespace sgr {

/// One stored entry m(k, k') of row k.
struct JdmEntry {
  std::uint32_t k_prime;
  std::int64_t count;
};

/// Joint degree matrix {m(k,k')}: entry (k,k') holds the number of edges
/// between nodes of degree k and nodes of degree k'. This is the 2K
/// statistic of the dK-series; the matrix is symmetric, and the row sum
/// s(k) = Σ_k' µ(k,k') m(k,k') equals k·n(k) for a realizable pair
/// (degree vector, matrix), where µ(k,k) = 2 and µ = 1 otherwise.
///
/// Storage is one sparse row per degree k, holding the non-zero entries
/// sorted by k'. Both (k,k') and (k',k) are stored (a single entry on the
/// diagonal), so walking rows 0..NumRows()-1 visits every ordered pair in
/// ascending (k, k') order: the order Algorithms 3-5 scan and draw in.
class JointDegreeMatrix {
 public:
  /// m(k, k'); 0 when absent.
  std::int64_t At(std::uint32_t k, std::uint32_t k_prime) const;

  /// Adds `delta` to m(k,k') and m(k',k) (one entry when k == k').
  /// Entries dropping to zero are erased so rows stay sparse.
  void AddSymmetric(std::uint32_t k, std::uint32_t k_prime,
                    std::int64_t delta);

  /// Sets m(k,k') = m(k',k) = value.
  void SetSymmetric(std::uint32_t k, std::uint32_t k_prime,
                    std::int64_t value);

  /// Rows stored; every row at or above it is empty. Trailing rows may be
  /// empty too, after their entries were erased.
  std::size_t NumRows() const { return rows_.size(); }

  /// Row k's non-zero entries, ascending in k'; empty for k >= NumRows().
  const std::vector<JdmEntry>& Row(std::uint32_t k) const;

  /// Row sum s(k) = Σ_k' µ(k,k') m(k,k').
  std::int64_t RowSum(std::uint32_t k) const;

  /// Every row sum s(0..k_max); rows above k_max are skipped.
  std::vector<std::int64_t> RowSums(std::uint32_t k_max) const;

  /// Σ_{k<=k'} m(k,k'): total number of edges described.
  std::int64_t TotalEdges() const;

  /// Largest degree appearing with a positive count.
  std::uint32_t MaxDegree() const;

  /// JDM-1: all entries non-negative.
  bool SatisfiesJdm1() const;

  /// JDM-2: symmetry (holds by construction; verified for tests).
  bool SatisfiesJdm2() const;

  /// JDM-3: s(k) == k * n(k) for every degree k <= k_max.
  bool SatisfiesJdm3(const DegreeVector& dv) const;

  /// JDM-4 relative to a lower-limit matrix: m(k,k') >= other(k,k').
  bool Dominates(const JointDegreeMatrix& lower) const;

 private:
  /// Adds `delta` to the one stored entry (k, k'), inserting or erasing it.
  void AddEntry(std::uint32_t k, std::uint32_t k_prime, std::int64_t delta);

  std::vector<std::vector<JdmEntry>> rows_;
};

}  // namespace sgr

#endif  // SGR_DK_JOINT_DEGREE_MATRIX_H_
