#include "restore/target_jdm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/sorted_keys.h"

namespace sgr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Initialization step of Section IV-C: for every degree pair with
/// P̂(k,k') > 0, m*(k,k') = max(NearInt(n̂ k̂̄ P̂(k,k')/µ(k,k')), 1).
JointDegreeMatrix InitializeJdm(const LocalEstimates& est) {
  JointDegreeMatrix m_star;
  for (const std::uint64_t key : SortedKeys(est.joint_dist.values())) {
    const double p = est.joint_dist.values().at(key);
    if (p <= 0.0) continue;
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (k > kp) continue;  // handle each unordered pair once
    const std::int64_t value = std::max<std::int64_t>(
        std::llround(est.EstimatedEdgeCount(k, kp)), 1);
    m_star.SetSymmetric(k, kp, value);
  }
  return m_star;
}

/// m̂(k,k') as the deltas read it: 0, so that every delta is +infinity,
/// when P̂(k,k') = 0.
double CachedEstimate(const LocalEstimates& est, std::uint32_t k,
                      std::uint32_t k_prime) {
  return est.joint_dist.At(k, k_prime) <= 0.0
             ? 0.0
             : est.EstimatedEdgeCount(k, k_prime);
}

/// Δ± of moving m*(k,k') = `current` by `direction` (Section IV-C), given
/// the cached estimate m̂(k,k'); +infinity when m̂ <= 0.
double CachedDelta(double estimate, std::int64_t current, int direction) {
  if (estimate <= 0.0) return kInf;
  const double cur = static_cast<double>(current);
  const double next = cur + static_cast<double>(direction);
  return (std::abs(estimate - next) - std::abs(estimate - cur)) / estimate;
}

/// Candidates minimizing Δ within the ±1e-15 tie window, in scan order.
/// A candidate replaces the set only when it beats the kept minimum by
/// more than the window; all-infinite candidates are all collected.
struct ArgMinSet {
  double best = kInf;
  std::vector<std::uint32_t> items;

  void Reset() {
    best = kInf;
    items.clear();
  }

  void Offer(double delta, std::uint32_t item) {
    if (delta < best - 1e-15) {
      best = delta;
      items.assign(1, item);
    } else if (delta <= best + 1e-15) {
      items.push_back(item);
    }
  }

  /// Uniformly random member (non-empty).
  std::uint32_t Pick(Rng& rng) const {
    return items[rng.NextIndex(items.size())];
  }
};

/// One candidate m*(k,k') of a row scan, with its lower limit and m̂.
struct Candidate {
  std::uint32_t k_prime;
  std::int64_t count;
  std::int64_t lower;
  double estimate;
};

/// Adjustment step (Algorithm 3): drive every row sum s(k) to its target
/// s*(k) = k n*(k), processing the frozen set D in decreasing degree order
/// and respecting the lower limits {m_min(k,k')}. May grow `n_star`.
///
/// Row k reads and writes only the entries (k, k') with k' <= k in D, and
/// no later (smaller) row reads any of them, so each row's candidates are
/// copied once into a contiguous array, scanned there, and every step is
/// mirrored into `m_star`.
void AdjustJdm(const LocalEstimates& est, DegreeVector& n_star,
               JointDegreeMatrix& m_star, const JointDegreeMatrix& m_min,
               Rng& rng) {
  const auto k_max = static_cast<std::uint32_t>(n_star.size() - 1);
  assert(m_star.MaxDegree() <= k_max);
  std::vector<std::int64_t> s = m_star.RowSums(k_max);
  std::vector<std::int64_t> s_star(k_max + 1, 0);
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    s_star[k] = static_cast<std::int64_t>(k) * n_star[k];
  }

  // D = {k : s(k) != s*(k)} ∪ {1}, frozen now; degrees outside D are never
  // touched, which is exactly the paper's third constraint.
  std::vector<std::uint32_t> d_set;
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    if (s[k] != s_star[k] || k == 1) d_set.push_back(k);
  }
  std::vector<Candidate> row;
  ArgMinSet best;
  // d_set is ascending by construction; process in decreasing order.
  for (auto it = d_set.rbegin(); it != d_set.rend(); ++it) {
    const std::uint32_t k = *it;
    if (k == 1 && (std::llabs(s[1] - s_star[1]) % 2) == 1) {
      // Lines 2-3: make the gap even; only m(1,1) can move s(1), in steps
      // of 2.
      ++n_star[1];
      s_star[1] += 1;
    }
    if (s[k] == s_star[k]) continue;
    row.clear();
    for (const std::uint32_t kp : d_set) {
      if (kp > k) break;
      row.push_back({kp, m_star.At(k, kp), m_min.At(k, kp),
                     CachedEstimate(est, k, kp)});
    }
    while (s[k] != s_star[k]) {
      // Lines 5-9 (increase, `direction` +1) pick the candidate with the
      // smallest Δ+(k,k'); lines 10-20 (decrease) the smallest Δ- among
      // entries above their lower limit. Either excludes k' = k when one
      // unit away (µ(k,k) = 2 would overshoot).
      const int direction = s[k] < s_star[k] ? +1 : -1;
      const bool exclude_self = (s[k] == s_star[k] - direction);
      best.Reset();
      for (std::uint32_t i = 0; i < row.size(); ++i) {
        const Candidate& c = row[i];
        if (exclude_self && c.k_prime == k) continue;
        if (direction < 0 && c.count <= c.lower) continue;
        best.Offer(CachedDelta(c.estimate, c.count, direction), i);
      }
      if (best.items.empty()) {
        // Only a decrease can find no candidate (D'+(k) contains degree
        // 1): grow the target sum instead.
        assert(direction < 0);
        if (k > 1) {
          ++n_star[k];
          s_star[k] += k;
        } else {
          n_star[1] += 2;
          s_star[1] += 2;
        }
        continue;
      }
      Candidate& c = row[best.Pick(rng)];
      c.count += direction;
      m_star.AddSymmetric(k, c.k_prime, direction);
      s[k] += (c.k_prime == k) ? 2 * direction : direction;
      if (c.k_prime != k) s[c.k_prime] += direction;
    }
  }
}

/// Modification step (Algorithm 4): raise m*(k1,k2) to at least m'(k1,k2)
/// for every pair, compensating through decrements elsewhere in rows k1 and
/// k2 so that row sums and the total edge count are preserved whenever
/// possible.
///
/// Pairs with m'(k1,k2) = 0 never loop, so only m''s support is visited,
/// in ascending (k1, k2) order. A decrement candidate needs m*(k,k') >
/// m'(k,k') >= 0, so it lies in row k's support of m*: each cached row
/// starts as m*'s row k with m'(k,k') and m̂(k,k') attached, stays sorted
/// by k' (new entries are inserted in place) and is scanned in ascending
/// k', the order of the dense k' = 1..k*_max scan.
void ModifyJdm(const LocalEstimates& est, std::uint32_t k_max,
               JointDegreeMatrix& m_star, const JointDegreeMatrix& m_prime,
               Rng& rng) {
  std::vector<std::vector<Candidate>> rows(k_max + 1);
  // The dense scans covered 1 <= k, k' <= k_max.
  for (std::uint32_t k = 1; k <= k_max; ++k) {
    for (const JdmEntry& e : m_star.Row(k)) {
      if (e.k_prime > k_max) break;
      if (e.k_prime == 0) continue;
      rows[k].push_back({e.k_prime, e.count, m_prime.At(k, e.k_prime),
                         CachedEstimate(est, k, e.k_prime)});
    }
  }
  auto entry = [&](std::uint32_t k, std::uint32_t kp) -> Candidate& {
    std::vector<Candidate>& row = rows[k];
    auto it = std::lower_bound(
        row.begin(), row.end(), kp,
        [](const Candidate& c, std::uint32_t v) { return c.k_prime < v; });
    if (it == row.end() || it->k_prime != kp) {
      it = row.insert(it, {kp, 0, m_prime.At(k, kp),
                           CachedEstimate(est, k, kp)});
    }
    return *it;
  };
  auto add = [&](std::uint32_t k, std::uint32_t kp, std::int64_t delta) {
    m_star.AddSymmetric(k, kp, delta);
    entry(k, kp).count += delta;
    if (kp != k) entry(kp, k).count += delta;
  };

  // D''_-(k): degrees k' != k with m*(k,k') > m'(k,k'), minimizing
  // Δ-(k,k'); ties uniformly random. Returns true and sets `out` when
  // non-empty.
  ArgMinSet best;
  auto pick_decrement = [&](std::uint32_t k, std::uint32_t& out) {
    best.Reset();
    for (const Candidate& c : rows[k]) {
      if (c.k_prime == k || c.count <= c.lower) continue;
      best.Offer(CachedDelta(c.estimate, c.count, -1), c.k_prime);
    }
    if (best.items.empty()) return false;
    out = best.Pick(rng);
    return true;
  };

  for (std::uint32_t k1 = 1; k1 <= k_max; ++k1) {
    for (const JdmEntry& target : m_prime.Row(k1)) {
      const std::uint32_t k2 = target.k_prime;
      if (k2 > k_max) break;
      if (k2 < k1) continue;
      while (entry(k1, k2).count < target.count) {
        add(k1, k2, +1);
        std::uint32_t k3 = 0;
        std::uint32_t k4 = 0;
        const bool found3 = pick_decrement(k1, k3);
        if (found3) add(k1, k3, -1);
        const bool found4 = pick_decrement(k2, k4);
        if (found4) add(k2, k4, -1);
        if (found3 && found4) add(k3, k4, +1);
      }
    }
  }
}

}  // namespace

double JdmDelta(const LocalEstimates& est, std::uint32_t k,
                std::uint32_t k_prime, std::int64_t current, int direction) {
  return CachedDelta(CachedEstimate(est, k, k_prime), current, direction);
}

JointDegreeMatrix BuildTargetJdmFromEstimates(const LocalEstimates& est,
                                              DegreeVector& n_star,
                                              Rng& rng) {
  JointDegreeMatrix m_star = InitializeJdm(est);
  AdjustJdm(est, n_star, m_star, JointDegreeMatrix(), rng);
  return m_star;
}

JointDegreeMatrix BuildTargetJdm(const LocalEstimates& est,
                                 DegreeVector& n_star,
                                 const JointDegreeMatrix& m_prime, Rng& rng) {
  JointDegreeMatrix m_star = InitializeJdm(est);
  AdjustJdm(est, n_star, m_star, JointDegreeMatrix(), rng);
  ModifyJdm(est, static_cast<std::uint32_t>(n_star.size() - 1), m_star,
            m_prime, rng);
  if (!m_star.SatisfiesJdm3(n_star)) {
    // The modification broke some row sums; re-adjust with the subgraph
    // class edges as hard lower limits so JDM-4 survives (Section IV-C).
    AdjustJdm(est, n_star, m_star, m_prime, rng);
  }
  assert(m_star.SatisfiesJdm1());
  assert(m_star.SatisfiesJdm2());
  assert(m_star.SatisfiesJdm3(n_star));
  assert(m_star.Dominates(m_prime));
  return m_star;
}

}  // namespace sgr
