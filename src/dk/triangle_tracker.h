#ifndef SGR_DK_TRIANGLE_TRACKER_H_
#define SGR_DK_TRIANGLE_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sgr {

/// Incremental maintenance of per-node triangle counts, per-degree-class
/// clustering sums, and the rewiring objective of Algorithm 6.
///
/// The rewiring phase performs millions of trial edge swaps; recomputing the
/// degree-dependent clustering coefficient from scratch per attempt would be
/// O(m^{3/2}) each. This tracker maintains:
///   * t_v — triangles through node v (multiplicity-aware),
///   * T(k) = Σ_{deg v = k} t_v per degree class,
///   * the normalized L1 objective
///       D = Σ_k |c̄(k) − ĉ̄(k)| / Σ_k ĉ̄(k),   c̄(k) = 2 T(k) / (k(k−1) n(k)),
/// under edge insertions/removals in O(min-degree) hash work per operation —
/// the O(k̄²) average the paper cites for one rewiring attempt.
///
/// Degrees are frozen at construction: Algorithm 6 only performs
/// degree-preserving swaps, so degree classes never change. The tracker owns
/// its own adjacency-multiplicity structure; callers must mirror every
/// AddEdge/RemoveEdge on the actual Graph (or revert the tracker) to stay in
/// sync.
///
/// The adjacency maps keep their nodes in one arena laid out by the frozen
/// degree vector: node v's map draws from a slab of Degree(v) slots, which
/// holds every distinct neighbor a degree-preserving swap can leave at v.
/// Only where a node lives changes; the maps' hashes, bucket counts and
/// operation sequence, and so their iteration order, are those of plain
/// heap-allocated maps.
class TriangleTracker {
 public:
  /// Builds the tracker from `g` with rewiring target ĉ̄(k) =
  /// `target_clustering[k]` (shorter vectors are zero-padded).
  TriangleTracker(const Graph& g, std::vector<double> target_clustering);

  /// The maps point into the tracker's own arena.
  TriangleTracker(const TriangleTracker&) = delete;
  TriangleTracker& operator=(const TriangleTracker&) = delete;

  /// Notifies the tracker that edge (u, v) was removed. u == v (loop) only
  /// updates multiplicities (loops form no triangles).
  void RemoveEdge(NodeId u, NodeId v);

  /// Notifies the tracker that edge (u, v) was added.
  void AddEdge(NodeId u, NodeId v);

  /// Triangles through `v`.
  std::int64_t triangles(NodeId v) const { return t_[v]; }

  /// Triangles through every node, indexed by NodeId.
  const std::vector<std::int64_t>& triangle_counts() const { return t_; }

  /// T(k): summed triangles of degree class k (0 for out-of-range k).
  std::int64_t ClassTriangles(std::uint32_t k) const {
    return k < class_t_.size() ? class_t_[k] : 0;
  }

  /// Present degree-dependent clustering c̄(k) of the tracked graph.
  double PresentClustering(std::uint32_t k) const;

  /// Normalized L1 distance between present and target clustering
  /// (the objective D of Algorithm 6). Maintained incrementally; see
  /// RecomputeObjective for drift control. Returns 0 when the target has no
  /// mass (Σ ĉ̄ = 0: nothing to optimize).
  double Objective() const { return target_mass_ > 0.0 ? objective_num_ / target_mass_ : 0.0; }

  /// Recomputes the objective numerator from T(k) to cancel accumulated
  /// floating-point drift. Called periodically by the rewirer.
  void RecomputeObjective();

  /// Multiplicity A_uv currently tracked (A_vv = 2 × loops).
  std::int64_t Multiplicity(NodeId u, NodeId v) const;

 private:
  /// One map node's storage: 16 bytes, or the link of a free list.
  union Slot {
    Slot* next_free;
    unsigned char bytes[16];
  };

  /// Node v's run of slots in the arena: a free list of returned slots,
  /// then a bump pointer over the never-used rest.
  struct Slab {
    Slot* free = nullptr;
    Slot* begin = nullptr;
    Slot* next = nullptr;
    Slot* end = nullptr;

    /// A slot, or nullptr when all Degree(v) slots are live.
    Slot* Take();
    /// True when `p` came from this slab.
    bool Owns(const void* p) const;
    /// Returns a slot taken from this slab.
    void Give(void* p);
  };

  /// One slab of Degree(v) slots per node v, at offsets given by the
  /// frozen degree vector.
  class NodeArena {
   public:
    explicit NodeArena(const std::vector<std::uint32_t>& degree);
    NodeArena(const NodeArena&) = delete;
    NodeArena& operator=(const NodeArena&) = delete;
    Slab* slab(NodeId v) { return &slabs_[v]; }

   private:
    std::vector<Slot> slots_;
    std::vector<Slab> slabs_;
  };

  /// Allocator of node v's map: single map nodes come from v's slab while
  /// it has room; bucket arrays and slab overflow (a caller adding edges
  /// beyond a node's degree) go to operator new.
  template <typename T>
  class SlabAllocator {
   public:
    using value_type = T;

    explicit SlabAllocator(Slab* slab) noexcept : slab_(slab) {}
    template <typename U>
    SlabAllocator(const SlabAllocator<U>& other) noexcept
        : slab_(other.slab()) {}

    T* allocate(std::size_t n) {
      if (IsNode(n)) {
        if (Slot* slot = slab_->Take()) return reinterpret_cast<T*>(slot);
      }
      return std::allocator<T>().allocate(n);
    }
    void deallocate(T* p, std::size_t n) noexcept {
      if (IsNode(n) && slab_->Owns(p)) {
        slab_->Give(p);
        return;
      }
      std::allocator<T>().deallocate(p, n);
    }

    Slab* slab() const { return slab_; }
    friend bool operator==(const SlabAllocator& a, const SlabAllocator& b) {
      return a.slab_ == b.slab_;
    }
    friend bool operator!=(const SlabAllocator& a, const SlabAllocator& b) {
      return a.slab_ != b.slab_;
    }

   private:
    static bool IsNode(std::size_t n) {
      return n == 1 && sizeof(T) == sizeof(Slot) &&
             alignof(T) <= alignof(Slot);
    }

    Slab* slab_;
  };

  using NeighborMap =
      std::unordered_map<NodeId, std::int32_t, std::hash<NodeId>,
                         std::equal_to<NodeId>,
                         SlabAllocator<std::pair<const NodeId, std::int32_t>>>;

  double ClassTerm(std::uint32_t k) const;
  void BumpClassTriangles(std::uint32_t k, std::int64_t delta);
  /// Calls visit(w, A_uw · A_vw) for every common neighbor w ∉ {u, v} of
  /// u != v, walking the smaller map in its order; returns the sum of the
  /// weights (the triangles an extra (u, v) edge closes).
  template <typename Visit>
  std::int64_t ForEachCommonNeighbor(NodeId u, NodeId v, Visit visit) const;
  /// Applies the triangle delta of inserting (sign=+1) or deleting
  /// (sign=-1) one (u,v) edge, u != v.
  void ApplyTriangleDelta(NodeId u, NodeId v, std::int64_t sign);

  std::vector<std::uint32_t> degree_;   // frozen degree classes
  NodeArena arena_;                     // before adj_: outlives its nodes
  std::vector<NeighborMap> adj_;
  std::vector<std::int64_t> t_;
  std::vector<std::int64_t> class_n_;   // n(k), frozen
  std::vector<std::int64_t> class_t_;   // T(k)
  std::vector<double> target_;          // ĉ̄(k), padded
  double target_mass_ = 0.0;            // Σ_k ĉ̄(k)
  double objective_num_ = 0.0;          // Σ_k |c̄(k) − ĉ̄(k)|
};

}  // namespace sgr

#endif  // SGR_DK_TRIANGLE_TRACKER_H_
