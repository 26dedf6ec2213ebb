#ifndef SGR_SAMPLING_SAMPLING_LIST_H_
#define SGR_SAMPLING_SAMPLING_LIST_H_

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/csr_graph.h"

namespace sgr {

/// Query access model of Section III-A: querying a node returns its
/// neighbor list; complete or random access to the graph is not possible.
///
/// Every crawler in this library touches the original graph only through
/// this oracle, which makes the information boundary of the problem explicit
/// and lets tests assert how many queries a method spent.
///
/// The hidden graph is an immutable CsrGraph snapshot.
/// One snapshot is shared read-only by every concurrent trial, each with
/// its own oracle (the oracle itself carries per-crawl query-count state
/// and must not be shared across threads). The oracle keeps a pointer to
/// the snapshot, so it cannot be built from a temporary.
class QueryOracle {
 public:
  explicit QueryOracle(const CsrGraph& g) : graph_(&g) {}
  explicit QueryOracle(const CsrGraph&& g) = delete;
  virtual ~QueryOracle() = default;

  /// Returns N(v): one entry per incident edge endpoint, sorted ascending.
  /// Counts the first query to each distinct node.
  ///
  /// Virtual so an adversarial oracle (sampling/perturbed_oracle.h) can
  /// inject crawl-time faults behind the same interface. The contract
  /// crawlers may rely on is weaker than this cooperative base class: a
  /// query may return an EMPTY span (private/suspended account, exhausted
  /// API budget), and the returned span is only guaranteed valid until
  /// the second-next Query call on the same oracle (a derived oracle may
  /// return filtered views backed by reused scratch storage). Crawlers
  /// therefore copy what they keep and tolerate empty results.
  virtual NeighborSpan Query(NodeId v) {
    if (queried_.insert(v).second) ++unique_queries_;
    return graph_->neighbors(v);
  }

  /// Number of distinct nodes queried so far.
  std::size_t unique_queries() const { return unique_queries_; }

  /// Number of nodes in the hidden graph. Exposed for the experiment
  /// harness only (to express budgets as "percent of nodes queried" as the
  /// paper does); restoration methods must not call this.
  std::size_t HiddenNumNodes() const { return graph_->NumNodes(); }

 private:
  const CsrGraph* graph_;
  std::unordered_set<NodeId> queried_;
  std::size_t unique_queries_ = 0;
};

/// Walk crawlers treat an empty query result as a failed move: the walker
/// stays put and redraws. After this many consecutive failed moves the
/// walk terminates (stranded among private accounts or past the API
/// budget) — the bound that keeps every walk finite against an oracle
/// that answers nothing. With per-account failure probability p, a walker
/// with at least one live neighbor strands spuriously with probability
/// <= p^64, negligible for any p the scenario schema admits.
inline constexpr std::size_t kMaxConsecutiveFailedMoves = 64;

/// The sampling list L = ((x_i, N(x_i)))_{i=1..r} of Section III-B, plus the
/// analogous record for non-walk crawlers.
///
/// For a random walk, `visit_sequence` is the full node sequence
/// x_1, ..., x_r (with repetitions — the Markov chain trajectory). For BFS,
/// snowball, and forest fire, `visit_sequence` is the order in which nodes
/// were queried (no repetitions) and `is_walk` is false; such samples
/// support subgraph induction but not re-weighted estimation.
struct SamplingList {
  /// Sequence of sampled nodes, in original-graph id space.
  std::vector<NodeId> visit_sequence;

  /// Neighbor list of every queried node (original ids).
  std::unordered_map<NodeId, std::vector<NodeId>> neighbors;

  /// Whether `visit_sequence` is a Markov-chain trajectory.
  bool is_walk = false;

  /// Number of walk steps r (or queried nodes for crawls).
  std::size_t Length() const { return visit_sequence.size(); }

  /// Number of distinct queried nodes.
  std::size_t NumQueried() const { return neighbors.size(); }

  /// Degree (in the original graph) of a queried node.
  std::size_t DegreeOf(NodeId v) const { return neighbors.at(v).size(); }
};

}  // namespace sgr

#endif  // SGR_SAMPLING_SAMPLING_LIST_H_
