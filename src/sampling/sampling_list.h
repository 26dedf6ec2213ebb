#ifndef SGR_SAMPLING_SAMPLING_LIST_H_
#define SGR_SAMPLING_SAMPLING_LIST_H_

#include <cstddef>
#include <cstdint>
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
/// analogous record for non-walk crawlers: one immutable record, built once
/// by SamplingListRecorder::Finish and read by every later phase.
///
/// For a random walk, the visit sequence is the full node sequence
/// x_1, ..., x_r (with repetitions — the Markov chain trajectory). For BFS,
/// snowball, and forest fire, it is the order in which nodes were queried
/// (no repetitions) and `is_walk()` is false; such samples support subgraph
/// induction but not re-weighted estimation.
///
/// Every node the crawl saw has a compact id:
///   [0, NumQueried())          the queried nodes, in ascending original id;
///   [NumQueried(), NumSeen())  the visible nodes (neighbors never queried),
///                              in order of first appearance along the rows.
/// Each queried node c owns the row [RowBegin(c), RowEnd(c)) of the flat
/// neighbor arrays: its neighbors sorted ascending by original id, and the
/// same entries as compact ids. The walk is stored in compact ids. No
/// reader needs a hash map: queried-ness is `c < NumQueried()`, and the
/// distinct-seen count is NumSeen().
class SamplingList {
 public:
  /// An empty non-walk list.
  SamplingList() = default;

  /// Whether the visit sequence is a Markov-chain trajectory.
  bool is_walk() const { return is_walk_; }

  /// Number of walk steps r (or queried nodes for crawls).
  std::size_t Length() const { return walk_.size(); }

  /// Number of distinct queried nodes.
  std::size_t NumQueried() const { return offsets_.size() - 1; }

  /// Number of distinct nodes seen: queried nodes plus visible ones.
  std::size_t NumSeen() const { return seen_.size(); }

  /// Whether compact node `c` was queried.
  bool IsQueried(std::uint32_t c) const { return c < NumQueried(); }

  /// Compact id -> original id, for every seen node.
  const std::vector<NodeId>& SeenIds() const { return seen_; }
  NodeId OriginalId(std::uint32_t c) const { return seen_[c]; }

  /// The visit sequence in compact ids.
  const std::vector<std::uint32_t>& Walk() const { return walk_; }

  /// Bounds of queried node `c`'s row in CompactNeighbors().
  std::size_t RowBegin(std::uint32_t c) const { return offsets_[c]; }
  std::size_t RowEnd(std::uint32_t c) const { return offsets_[c + 1]; }

  /// Degree (in the original graph) of queried node `c`.
  std::size_t Degree(std::uint32_t c) const { return RowEnd(c) - RowBegin(c); }

  /// N(c) of queried node `c`, ascending original ids.
  NeighborSpan Row(std::uint32_t c) const {
    return NeighborSpan(neighbors_.data() + RowBegin(c), Degree(c));
  }

  /// All rows, flat, as compact ids (aligned with the Row() entries).
  const std::vector<std::uint32_t>& CompactNeighbors() const {
    return compact_neighbors_;
  }

 private:
  friend class SamplingListRecorder;

  bool is_walk_ = false;
  std::vector<NodeId> seen_;
  std::vector<std::size_t> offsets_ = {0};
  std::vector<NodeId> neighbors_;
  std::vector<std::uint32_t> compact_neighbors_;
  std::vector<std::uint32_t> walk_;
};

/// The write side of a sampling list. A crawler records each queried
/// node's neighbor list and each visit as it goes, reading rows back
/// mid-walk; Finish() then builds the immutable SamplingList once.
class SamplingListRecorder {
 public:
  /// Keeps N(v) as answered by the oracle, the first time `v` is recorded
  /// (a repeat query leaves the kept row as it is). Returns the kept row:
  /// stable storage that outlives later oracle queries.
  const std::vector<NodeId>& Record(NodeId v, NeighborSpan neighbors);

  /// Appends `v` to the visit sequence.
  void Visit(NodeId v) { visits_.push_back(v); }

  bool Contains(NodeId v) const { return rows_.count(v) > 0; }

  /// The kept row of a recorded node (throws std::out_of_range otherwise).
  const std::vector<NodeId>& Row(NodeId v) const { return rows_.at(v); }

  std::size_t NumQueried() const { return rows_.size(); }
  std::size_t Length() const { return visits_.size(); }

  /// Builds the list: queried ids sorted, every row sorted, every entry
  /// resolved to its compact id, the walk in compact ids. Oracle rows are
  /// already ascending, so sorting leaves a crawl's rows as they were.
  /// Throws std::invalid_argument when a visited node has no row.
  SamplingList Finish(bool is_walk) &&;

 private:
  std::vector<NodeId> visits_;
  std::vector<NodeId> queried_;  ///< recording order
  std::unordered_map<NodeId, std::vector<NodeId>> rows_;
};

}  // namespace sgr

#endif  // SGR_SAMPLING_SAMPLING_LIST_H_
