#include "estimation/estimators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/sorted_keys.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgr {

namespace {

/// Chunked execution of the estimator pass. Every accumulation below is
/// split over the fixed kEstimatorChunkSize grid: each chunk writes only
/// its own partial slot, and the caller reduces the partials in ascending
/// chunk order. The grid depends only on the element count, so the
/// summation order of every double is fixed by the input alone.
class ChunkRunner {
 public:
  explicit ChunkRunner(std::size_t count) : count_(count) {}

  std::size_t NumChunks() const {
    return count_ == 0 ? 0 : (count_ - 1) / kEstimatorChunkSize + 1;
  }

  /// Calls fn(chunk, begin, end) for every chunk of [0, count), in
  /// ascending chunk order.
  void Run(const std::function<void(std::size_t, std::size_t, std::size_t)>&
               fn) const {
    const std::size_t chunks = NumChunks();
    obs::MetricAdd("estimate.chunks", chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      obs::Span chunk_span("estimate_chunk", "estimate");
      const std::size_t begin = c * kEstimatorChunkSize;
      fn(c, begin, std::min(count_, begin + kEstimatorChunkSize));
    }
  }

 private:
  std::size_t count_;
};

/// Lag threshold M = max(1, round(fraction * r)).
std::size_t LagThreshold(std::size_t r, double fraction) {
  const auto rounded = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(r)));
  return std::max<std::size_t>(1, rounded);
}

/// Walk positions of every queried node, ascending: node c's positions
/// are [begin(c), end(c)). A node queried but never visited (a rejected
/// Metropolis-Hastings proposal) has none. Built by one counting pass over
/// the compact walk; the collision sums of n̂ and the induced-edge pass
/// read the same table.
class WalkPositions {
 public:
  explicit WalkPositions(const SamplingList& list)
      : offsets_(list.NumQueried() + 1, 0), positions_(list.Length()) {
    const std::vector<std::uint32_t>& walk = list.Walk();
    for (const std::uint32_t c : walk) ++offsets_[c + 1];
    for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
      offsets_[c + 1] += offsets_[c];
    }
    std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < walk.size(); ++i) {
      positions_[next[walk[i]]++] = i;
    }
  }

  const std::size_t* begin(std::size_t c) const {
    return positions_.data() + offsets_[c];
  }
  const std::size_t* end(std::size_t c) const {
    return positions_.data() + offsets_[c + 1];
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> positions_;
};

/// (degree-pair key, value) pairs; summed, ascending by key.
using KeyedSums = std::vector<std::pair<std::uint64_t, double>>;

/// Sums the values of equal keys in place and leaves one pair per key,
/// ascending. The sort is stable, so each key's values are added in their
/// order in `pairs`: every sum is the double `sum[key] += value` would
/// give over `pairs` in order.
void SumRuns(KeyedSums& pairs) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::size_t out = 0;
  for (std::size_t i = 0; i < pairs.size();) {
    const std::uint64_t key = pairs[i].first;
    double sum = 0.0;
    for (; i < pairs.size() && pairs[i].first == key; ++i) {
      sum += pairs[i].second;
    }
    pairs[out++] = {key, sum};
  }
  pairs.resize(out);
}

/// Per-chunk sums merged in ascending chunk order: each key's chunk sums
/// are added in chunk order.
KeyedSums MergeChunks(const std::vector<KeyedSums>& chunks) {
  KeyedSums merged;
  for (const KeyedSums& local : chunks) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  SumRuns(merged);
  return merged;
}

/// Number of ordered index pairs (i, j), i != j, with |i - j| >= M.
double CountOrderedPairs(std::size_t r, std::size_t m) {
  // Ordered pairs with |i-j| >= M: for each lag d in [M, r-1] there are
  // (r - d) unordered pairs, times 2 orientations.
  double total = 0.0;
  for (std::size_t d = m; d < r; ++d) {
    total += 2.0 * static_cast<double>(r - d);
  }
  return total;
}

/// Number of positions in [begin, end) inside the open window
/// (center - M, center + M); the positions must be sorted.
std::size_t CountWithinWindow(const std::size_t* begin,
                              const std::size_t* end, std::size_t center,
                              std::size_t m) {
  const std::size_t lo = center >= m - 1 ? center - (m - 1) : 0;
  const std::size_t hi = center + (m - 1);  // inclusive
  const std::size_t* first = std::lower_bound(begin, end, lo);
  const std::size_t* last = std::upper_bound(first, end, hi);
  return static_cast<std::size_t>(last - first);
}

/// Defined fallback for walks too short for the re-weighted machinery
/// (r < 3; including the empty list): plain small-sample statistics. The
/// interesting estimators all need lagged pairs (n̂) or interior positions
/// (ĉ̄), so visit frequencies are the best defined answer.
LocalEstimates SmallSampleEstimates(const SamplingList& list) {
  LocalEstimates est;
  const std::size_t r = list.Length();
  est.num_nodes = static_cast<double>(list.NumSeen());
  if (r == 0) return est;  // empty list: zero estimates, empty dists

  std::size_t max_degree = 0;
  double degree_sum = 0.0;
  for (const std::uint32_t c : list.Walk()) {
    const std::size_t d = list.Degree(c);
    max_degree = std::max(max_degree, d);
    degree_sum += static_cast<double>(d);
  }
  est.average_degree = degree_sum / static_cast<double>(r);
  est.degree_dist.assign(max_degree + 1, 0.0);
  for (const std::uint32_t c : list.Walk()) {
    est.degree_dist[list.Degree(c)] += 1.0 / static_cast<double>(r);
  }
  est.clustering.assign(max_degree + 1, 0.0);
  return est;
}

/// The collision estimator n̂ over a positions table of `list`'s walk.
double CollisionEstimate(const SamplingList& list,
                         const WalkPositions& positions, double fallback,
                         const EstimatorOptions& options) {
  const std::size_t r = list.Length();
  const std::size_t m = LagThreshold(r, options.collision_threshold_fraction);
  const std::vector<std::uint32_t>& walk = list.Walk();

  // Denominator: ordered collision pairs at lag >= M, computed per node via
  // two-pointer over the sorted position list. The per-node counts are
  // integer-valued, so the chunked partial sums are exact in any order.
  const ChunkRunner node_runner(list.NumQueried());
  std::vector<double> collision_partial(node_runner.NumChunks(), 0.0);
  node_runner.Run([&](std::size_t chunk, std::size_t begin,
                      std::size_t end) {
    double sum = 0.0;
    for (std::size_t n = begin; n < end; ++n) {
      const std::size_t* pos = positions.begin(n);
      const auto count =
          static_cast<std::size_t>(positions.end(n) - positions.begin(n));
      // For each a, count b > a with pos[b] - pos[a] >= M (then double).
      std::size_t b = 0;
      for (std::size_t a = 0; a < count; ++a) {
        if (b < a + 1) b = a + 1;
        while (b < count && pos[b] - pos[a] < m) ++b;
        sum += 2.0 * static_cast<double>(count - b);
      }
    }
    collision_partial[chunk] = sum;
  });
  double collisions = 0.0;
  for (double p : collision_partial) collisions += p;
  if (collisions == 0.0) return fallback;

  // Numerator: sum over ordered far pairs of d_{x_i} / d_{x_j}
  //   = Σ_i d_{x_i} * (Σ_j 1/d_{x_j} - Σ_{j in window(i)} 1/d_{x_j}),
  // with the window handled by a prefix-sum array (serial O(r): a prefix
  // sum is inherently order-dependent) and the outer sum chunked.
  std::vector<double> inv_prefix(r + 1, 0.0);
  for (std::size_t i = 0; i < r; ++i) {
    const auto degree = static_cast<double>(list.Degree(walk[i]));
    // Zero-degree entries (hand-built lists only) contribute no weight —
    // an infinite term here would turn the window subtraction below into
    // inf - inf = NaN.
    inv_prefix[i + 1] = inv_prefix[i] + (degree > 0.0 ? 1.0 / degree : 0.0);
  }
  const double inv_total = inv_prefix[r];
  const ChunkRunner walk_runner(r);
  std::vector<double> numerator_partial(walk_runner.NumChunks(), 0.0);
  walk_runner.Run([&](std::size_t chunk, std::size_t begin,
                      std::size_t end) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t lo = i >= m - 1 ? i - (m - 1) : 0;
      const std::size_t hi = std::min(r - 1, i + (m - 1));
      const double window = inv_prefix[hi + 1] - inv_prefix[lo];
      sum += static_cast<double>(list.Degree(walk[i])) *
             (inv_total - window);
    }
    numerator_partial[chunk] = sum;
  });
  double numerator = 0.0;
  for (double p : numerator_partial) numerator += p;
  return numerator / collisions;
}

}  // namespace

double EstimateAverageDegree(const SamplingList& list) {
  if (!list.is_walk() || list.Length() == 0) return 0.0;
  const std::size_t r = list.Length();
  const std::vector<std::uint32_t>& walk = list.Walk();
  const ChunkRunner runner(r);
  std::vector<double> partial(runner.NumChunks(), 0.0);
  runner.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto degree = static_cast<double>(list.Degree(walk[i]));
      if (degree > 0.0) sum += 1.0 / degree;
    }
    partial[chunk] = sum;
  });
  double inv_sum = 0.0;
  for (double p : partial) inv_sum += p;
  // A walk pinned to zero-degree nodes (only possible for hand-built
  // lists) has no finite harmonic mean; 0 is the documented sentinel.
  if (inv_sum <= 0.0) return 0.0;
  return static_cast<double>(r) / inv_sum;
}

double EstimateNumNodes(const SamplingList& list, double fallback,
                        const EstimatorOptions& options) {
  if (!list.is_walk() || list.Length() < 3) return fallback;
  return CollisionEstimate(list, WalkPositions(list), fallback, options);
}

LocalEstimates EstimateLocalProperties(const SamplingList& list,
                                       const EstimatorOptions& options) {
  if (!list.is_walk()) {
    throw std::invalid_argument(
        "EstimateLocalProperties: re-weighted estimators require a walk "
        "sample (list.is_walk()); BFS/snowball/forest-fire crawls would "
        "yield biased estimates");
  }
  const std::size_t r = list.Length();
  if (r < 3) return SmallSampleEstimates(list);
  const std::vector<std::uint32_t>& walk = list.Walk();
  const std::size_t m = LagThreshold(r, options.collision_threshold_fraction);
  const ChunkRunner runner(r);
  const std::size_t num_chunks = runner.NumChunks();
  auto degree_at = [&](std::size_t i) { return list.Degree(walk[i]); };

  LocalEstimates est;

  // --- Degrees, Φ̄, Φ(k). One chunked pass collects, per chunk, the
  //     local maximum degree, the local degree histogram, and the local
  //     Φ̄ partial; the reduction walks the chunks in ascending order so
  //     the Φ̄ summation order is canonical. ---
  struct DegreeChunk {
    std::size_t max_degree = 0;
    std::vector<double> count;
    double phi_bar = 0.0;
  };
  std::vector<DegreeChunk> degree_chunks(num_chunks);
  runner.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    DegreeChunk& local = degree_chunks[chunk];
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t d = degree_at(i);
      local.max_degree = std::max(local.max_degree, d);
      if (d >= local.count.size()) local.count.resize(d + 1, 0.0);
      local.count[d] += 1.0;
      if (d > 0) local.phi_bar += 1.0 / static_cast<double>(d);
    }
  });
  std::size_t max_degree = 0;
  for (const DegreeChunk& local : degree_chunks) {
    max_degree = std::max(max_degree, local.max_degree);
  }
  std::vector<double> degree_count(max_degree + 1, 0.0);
  double phi_bar = 0.0;
  for (const DegreeChunk& local : degree_chunks) {
    for (std::size_t d = 0; d < local.count.size(); ++d) {
      degree_count[d] += local.count[d];
    }
    phi_bar += local.phi_bar;
  }
  phi_bar /= static_cast<double>(r);
  // A zero-edge crawl (every queried node isolated — hand-built lists
  // only) admits no re-weighting at all; fall back to the defined
  // small-sample statistics instead of dividing by zero.
  if (phi_bar <= 0.0) return SmallSampleEstimates(list);
  est.average_degree = 1.0 / phi_bar;

  std::vector<double> phi(max_degree + 1, 0.0);
  for (std::size_t k = 1; k <= max_degree; ++k) {
    phi[k] = degree_count[k] /
             (static_cast<double>(k) * static_cast<double>(r));
  }
  est.degree_dist.assign(max_degree + 1, 0.0);
  for (std::size_t k = 1; k <= max_degree; ++k) {
    est.degree_dist[k] = phi[k] / phi_bar;
  }

  // --- Number of nodes (fallback: number of distinct nodes seen, a lower
  //     bound available from the sampling list itself). ---
  const WalkPositions positions(list);
  est.num_nodes = CollisionEstimate(
      list, positions, static_cast<double>(list.NumSeen()), options);

  // --- Joint degree distribution: hybrid of IE and TE (Section III-E). ---
  // TE: traversed edges (consecutive walk pairs, pair (i, i+1) owned by
  // the chunk of its left index). Each chunk collects its (class, weight)
  // pairs in walk order and sums them per class; the chunk sums are then
  // merged in ascending chunk order, so each class's weight sum has a
  // canonical order.
  std::vector<KeyedSums> te_chunks(num_chunks);
  runner.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    KeyedSums& local = te_chunks[chunk];
    for (std::size_t i = begin; i < std::min(end, r - 1); ++i) {
      const auto k = static_cast<std::uint32_t>(degree_at(i));
      const auto kp = static_cast<std::uint32_t>(degree_at(i + 1));
      // Both indicator terms of P̂TE fire for (k, k') and for (k', k); each
      // consecutive pair contributes 1/(2(r-1)) to each ordering (twice
      // that on the diagonal).
      const double w = 1.0 / (2.0 * static_cast<double>(r - 1));
      if (k == kp) {
        local.emplace_back(DegreePairKey(k, kp), 2.0 * w);
      } else {
        local.emplace_back(DegreePairKey(k, kp), w);
        local.emplace_back(DegreePairKey(kp, k), w);
      }
    }
    SumRuns(local);
  });
  const KeyedSums te = MergeChunks(te_chunks);

  // IE: induced edges among far-apart walk positions. For each position i
  // and each neighbor w of x_i that occurs in the walk at lag >= M, count 1
  // (A_{x_i, x_j} = 1 exactly when x_j is a neighbor of x_i; originals are
  // simple). Grouped per (d(x_i), d(w)) class. The counts are integers,
  // so the chunked merge is exact in any order.
  const std::vector<std::uint32_t>& compact = list.CompactNeighbors();
  std::vector<KeyedSums> ie_chunks(num_chunks);
  runner.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    KeyedSums& local = ie_chunks[chunk];
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t u = walk[i];
      const auto k = static_cast<std::uint32_t>(list.Degree(u));
      for (std::size_t e = list.RowBegin(u); e < list.RowEnd(u); ++e) {
        const std::uint32_t w = compact[e];
        if (!list.IsQueried(w)) continue;
        const std::size_t* pos = positions.begin(w);
        const std::size_t* pos_end = positions.end(w);
        if (pos == pos_end) continue;
        const auto count = static_cast<std::size_t>(pos_end - pos);
        const std::size_t far =
            count - CountWithinWindow(pos, pos_end, i, m);
        if (far == 0) continue;
        const auto kp = static_cast<std::uint32_t>(list.Degree(w));
        local.emplace_back(DegreePairKey(k, kp), static_cast<double>(far));
      }
    }
    SumRuns(local);
  });
  const KeyedSums ie_counts = MergeChunks(ie_chunks);
  const double num_pairs = CountOrderedPairs(r, m);
  SparseJointDist ie;
  for (const auto& [key, count] : ie_counts) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    const double phi_kkp = count / (static_cast<double>(k) *
                                    static_cast<double>(kp) * num_pairs);
    // ie_counts already contains both orderings (the i/w loop sees each
    // unordered far pair twice, once from each side), so set, not add.
    ie.SetSymmetric(k, kp,
                    est.num_nodes * est.average_degree * phi_kkp);
  }

  // Hybrid: IE for k + k' >= 2 k̂̄ (high-degree pairs, where induced edges
  // are plentiful), TE below the threshold (where the walk itself samples
  // edges without bias).
  const auto te_at = [&te](std::uint32_t k, std::uint32_t kp) {
    const std::uint64_t key = DegreePairKey(k, kp);
    const auto it = std::lower_bound(
        te.begin(), te.end(), key,
        [](const auto& entry, std::uint64_t x) { return entry.first < x; });
    return it == te.end() || it->first != key ? 0.0 : it->second;
  };
  const double threshold = 2.0 * est.average_degree;
  std::vector<std::uint64_t> keys = SortedKeys(ie.values());
  for (const auto& entry : te) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::uint64_t key : keys) {
    const auto k = static_cast<std::uint32_t>(key >> 32);
    const auto kp = static_cast<std::uint32_t>(key & 0xffffffffu);
    if (k > kp) continue;  // handle each unordered pair once
    double value = 0.0;
    switch (options.joint_mode) {
      case JointEstimatorMode::kHybrid:
        value = (static_cast<double>(k) + static_cast<double>(kp) >=
                 threshold)
                    ? ie.At(k, kp)
                    : te_at(k, kp);
        break;
      case JointEstimatorMode::kInducedEdgesOnly:
        value = ie.At(k, kp);
        break;
      case JointEstimatorMode::kTraversedEdgesOnly:
        value = te_at(k, kp);
        break;
    }
    if (value > 0.0) est.joint_dist.SetSymmetric(k, kp, value);
  }

  // --- Degree-dependent clustering ĉ̄(k) = Φ_c(k) / Φ(k). ---
  // Φ_c(k) = 1/((k-1)(r-2)) Σ_{i=2}^{r-1} 1{d(x_i)=k} A_{x_{i-1}, x_{i+1}}.
  // The indicator sum is integer-valued per degree class, so the chunked
  // histogram merge is exact.
  std::vector<std::vector<double>> phi_c_chunks(num_chunks);
  runner.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::vector<double>& local = phi_c_chunks[chunk];
    for (std::size_t i = std::max<std::size_t>(begin, 1);
         i < std::min(end, r - 1); ++i) {
      if (walk[i - 1] == walk[i + 1]) continue;  // A_vv = 0: simple graph
      const NeighborSpan previous = list.Row(walk[i - 1]);
      if (std::binary_search(previous.begin(), previous.end(),
                             list.OriginalId(walk[i + 1]))) {
        const std::size_t d = degree_at(i);
        if (d >= local.size()) local.resize(d + 1, 0.0);
        local[d] += 1.0;
      }
    }
  });
  std::vector<double> phi_c(max_degree + 1, 0.0);
  for (const std::vector<double>& local : phi_c_chunks) {
    for (std::size_t d = 0; d < local.size(); ++d) phi_c[d] += local[d];
  }
  est.clustering.assign(max_degree + 1, 0.0);
  for (std::size_t k = 2; k <= max_degree; ++k) {
    if (phi[k] <= 0.0) continue;
    // Normalizer: k-1 for a simple walk (Hardiman & Katzir), k for a
    // non-backtracking walk, whose interior step is uniform over the k-1
    // non-returning neighbors (see WalkType).
    const double normalizer =
        options.walk_type == WalkType::kSimple
            ? static_cast<double>(k - 1)
            : static_cast<double>(k);
    const double phick =
        phi_c[k] / (normalizer * static_cast<double>(r - 2));
    est.clustering[k] = phick / phi[k];
  }
  return est;
}

}  // namespace sgr
