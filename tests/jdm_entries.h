#ifndef SGR_TESTS_JDM_ENTRIES_H_
#define SGR_TESTS_JDM_ENTRIES_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "dk/joint_degree_matrix.h"

namespace sgr {

/// Every stored entry (k, k', m(k,k')) of `m`, rows ascending in k and each
/// row ascending in k'. Empty rows add nothing, so two matrices with the
/// same entries compare equal however many trailing empty rows they hold.
inline std::vector<std::tuple<std::uint32_t, std::uint32_t, std::int64_t>>
JdmEntries(const JointDegreeMatrix& m) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::int64_t>> out;
  for (std::uint32_t k = 0; k < m.NumRows(); ++k) {
    for (const JdmEntry& e : m.Row(k)) out.emplace_back(k, e.k_prime, e.count);
  }
  return out;
}

}  // namespace sgr

#endif  // SGR_TESTS_JDM_ENTRIES_H_
