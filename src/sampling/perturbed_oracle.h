#ifndef SGR_SAMPLING_PERTURBED_ORACLE_H_
#define SGR_SAMPLING_PERTURBED_ORACLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sampling/sampling_list.h"

namespace sgr {

/// Crawl-time fault model of the adversarial oracle — the "noise" axis of
/// a scenario document. The cooperative QueryOracle answers every query
/// with the complete neighbor list; a real social-media API does not:
/// accounts are private or suspended, edges are invisible to the crawler,
/// the graph changes under the crawl, and the platform meters API calls.
/// All four knobs default to off; a default-constructed CrawlNoise is the
/// cooperative oracle.
struct CrawlNoise {
  /// Probability that an account is private/suspended: every query to
  /// such a node returns an empty result. Decided per NODE from the
  /// derived noise seed (a suspended account stays suspended), so
  /// repeated queries agree and the visible graph is well defined.
  double failure = 0.0;

  /// Fraction of edges invisible to the crawler, each edge independently,
  /// decided once per oracle from the derived seed on the canonical
  /// (min, max) endpoint pair — both endpoints agree, repeated queries
  /// agree, and parallel copies of an edge hide together.
  double hidden_edges = 0.0;

  /// Transient churn: at each API call, each surviving neighbor entry is
  /// independently invisible with this probability, redrawn per call —
  /// the crawl observes an inconsistently evolving graph (u may list v
  /// while v's later answer omits u). Deterministic in (seed, edge,
  /// api-call index).
  double churn = 0.0;

  /// API-call budget: after this many Query() calls the oracle answers
  /// every further query with an empty result (rate limit exhausted).
  /// 0 = unmetered. This is the budget "in API calls instead of node
  /// fraction": repeat queries and failed queries all spend it.
  std::uint64_t api_budget = 0;

  /// True when any knob departs from the cooperative oracle.
  bool Active() const {
    return failure > 0.0 || hidden_edges > 0.0 || churn > 0.0 ||
           api_budget > 0;
  }

  friend bool operator==(const CrawlNoise& a, const CrawlNoise& b) {
    return a.failure == b.failure && a.hidden_edges == b.hidden_edges &&
           a.churn == b.churn && a.api_budget == b.api_budget;
  }
  friend bool operator!=(const CrawlNoise& a, const CrawlNoise& b) {
    return !(a == b);
  }
};

/// Whether `noise` marks node `v` as private/suspended under `noise_seed`.
/// A pure hash of (seed, v) — no RNG stream is consumed, so the decision
/// is independent of query order, thread schedule, and everything else.
/// Exposed for the experiment harness (seed-node selection retries nodes
/// the platform would reject outright); restoration methods must not
/// call it.
bool NoiseFailsNode(const CrawlNoise& noise, std::uint64_t noise_seed,
                    NodeId v);

/// QueryOracle with seeded fault injection layered over the hidden graph.
///
/// Determinism: every perturbation decision is a pure hash of
/// (noise_seed, node/edge ids[, api-call index]) — the oracle owns no RNG
/// engine and consumes no draws from the crawler's stream. Constructed
/// with a seed derived from (spec seed, cell, trial), two crawls with the
/// same seed see byte-identical faults regardless of thread count, and a
/// crawl with `noise.Active() == false` is bit-for-bit the cooperative
/// QueryOracle (the query path short-circuits before any perturbation
/// work).
///
/// Span lifetime: filtered views are backed by two reused scratch
/// buffers, so a returned span stays valid until the second-next Query
/// call — the weakened contract documented on QueryOracle::Query (MHRW
/// holds the current node's span across exactly one proposal query).
class PerturbedOracle : public QueryOracle {
 public:
  PerturbedOracle(const CsrGraph& g, const CrawlNoise& noise,
                  std::uint64_t noise_seed);
  PerturbedOracle(const CsrGraph&& g, const CrawlNoise& noise,
                  std::uint64_t noise_seed) = delete;

  NeighborSpan Query(NodeId v) override;

  /// Total Query() calls, including repeats and failures — the quantity
  /// `api_budget` meters.
  std::uint64_t api_calls() const { return api_calls_; }

  /// Queries answered empty because the node is private/suspended or the
  /// API budget was exhausted.
  std::uint64_t failed_queries() const { return failed_queries_; }

  /// Neighbor entries withheld from otherwise-successful answers by the
  /// hidden-edge and churn filters (summed over all calls).
  std::uint64_t suppressed_edges() const { return suppressed_edges_; }

  /// True once `api_budget` is set and spent.
  bool BudgetExhausted() const {
    return noise_.api_budget > 0 && api_calls_ >= noise_.api_budget;
  }

  const CrawlNoise& noise() const { return noise_; }

 private:
  NeighborSpan Perturb(NodeId v, NeighborSpan raw);

  CrawlNoise noise_;
  std::uint64_t seed_ = 0;
  std::uint64_t api_calls_ = 0;
  std::uint64_t failed_queries_ = 0;
  std::uint64_t suppressed_edges_ = 0;
  /// Two-slot ring backing filtered views (see class comment).
  std::array<std::vector<NodeId>, 2> scratch_;
  std::size_t scratch_slot_ = 0;
};

}  // namespace sgr

#endif  // SGR_SAMPLING_PERTURBED_ORACLE_H_
