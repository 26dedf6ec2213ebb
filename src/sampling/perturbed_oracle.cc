#include "sampling/perturbed_oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sgr {

namespace {

/// One SplitMix64 round over base + word * phi — the same mixer the trial
/// runner's seed derivation uses (exp/parallel.h), duplicated here so the
/// sampling layer does not depend on the experiment layer.
std::uint64_t Mix(std::uint64_t base, std::uint64_t word) {
  std::uint64_t z = base + word * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Top 53 bits as a uniform double in [0, 1).
double ToUnit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Stream tags keeping the three fault families statistically independent
// even though they share one oracle seed.
constexpr std::uint64_t kFailStream = 0xFA11;
constexpr std::uint64_t kHideStream = 0x41DE;
constexpr std::uint64_t kChurnStream = 0xC4A9;

void ValidateNoise(const CrawlNoise& noise) {
  const auto in_unit = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  if (!in_unit(noise.failure) || !in_unit(noise.hidden_edges) ||
      !in_unit(noise.churn)) {
    throw std::invalid_argument(
        "perturbed oracle: failure, hidden_edges, and churn must be "
        "probabilities in [0, 1]");
  }
}

}  // namespace

bool NoiseFailsNode(const CrawlNoise& noise, std::uint64_t noise_seed,
                    NodeId v) {
  if (noise.failure <= 0.0) return false;
  return ToUnit(Mix(Mix(noise_seed, kFailStream),
                    static_cast<std::uint64_t>(v))) < noise.failure;
}

PerturbedOracle::PerturbedOracle(const CsrGraph& g, const CrawlNoise& noise,
                                 std::uint64_t noise_seed)
    : QueryOracle(g), noise_(noise), seed_(noise_seed) {
  ValidateNoise(noise_);
}

NeighborSpan PerturbedOracle::Query(NodeId v) {
  if (!noise_.Active()) return QueryOracle::Query(v);
  ++api_calls_;
  if (noise_.api_budget > 0 && api_calls_ > noise_.api_budget) {
    // Rate limit exhausted: the platform stops answering, but the
    // attempt still happened (and still counts as an API call).
    ++failed_queries_;
    return NeighborSpan();
  }
  // The base class fetch also maintains the distinct-node accounting —
  // a failed query is still a spent query.
  const NeighborSpan raw = QueryOracle::Query(v);
  if (NoiseFailsNode(noise_, seed_, v)) {
    ++failed_queries_;
    return NeighborSpan();
  }
  if (noise_.hidden_edges <= 0.0 && noise_.churn <= 0.0) return raw;
  return Perturb(v, raw);
}

NeighborSpan PerturbedOracle::Perturb(NodeId v, NeighborSpan raw) {
  const std::uint64_t hide_seed = Mix(seed_, kHideStream);
  // Churn redraws per API call: fold the call index into the stream so
  // the same edge flickers deterministically over the crawl.
  const std::uint64_t churn_seed =
      noise_.churn > 0.0 ? Mix(Mix(seed_, kChurnStream), api_calls_) : 0;
  std::vector<NodeId>& out = scratch_[scratch_slot_];
  scratch_slot_ ^= 1;
  out.clear();
  out.reserve(raw.size());
  for (NodeId w : raw) {
    // Canonical endpoint order: both sides of an edge hash identically.
    const auto lo = static_cast<std::uint64_t>(std::min(v, w));
    const auto hi = static_cast<std::uint64_t>(std::max(v, w));
    if (noise_.hidden_edges > 0.0 &&
        ToUnit(Mix(Mix(hide_seed, lo), hi)) < noise_.hidden_edges) {
      ++suppressed_edges_;
      continue;
    }
    if (noise_.churn > 0.0 &&
        ToUnit(Mix(Mix(churn_seed, lo), hi)) < noise_.churn) {
      ++suppressed_edges_;
      continue;
    }
    out.push_back(w);
  }
  return NeighborSpan(out.data(), out.size());
}

}  // namespace sgr
