#include "graph/edge_list_reader.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exp/parallel.h"
#include "graph/components.h"
#include "graph/snapshot_cache.h"

namespace sgr {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Bump the cache key version whenever the ingest pipeline's output for
/// an unchanged input file could change (preprocessing policy, snapshot
/// format) — stale snapshot-cache entries then miss instead of lying.
constexpr std::uint64_t kIngestFormatVersion = 1;

inline void FnvMixBytes(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

inline void FnvMixU64(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= value & 0xFFu;
    h *= kFnvPrime;
    value >>= 8;
  }
}

/// First-appearance renumbering: the k-th distinct raw id becomes NodeId
/// k. Small raw ids (the overwhelmingly common SNAP case) go through a
/// direct-indexed table; larger (up to 64-bit) ids fall back to a hash
/// map. The map is only ever probed, never iterated, so determinism does
/// not depend on its bucket order.
class Interner {
 public:
  NodeId Intern(std::uint64_t raw) {
    if (raw < kDenseLimit) {
      if (raw >= dense_.size()) {
        std::size_t grown = std::max<std::size_t>(dense_.size() * 2, 1024);
        grown = std::max<std::size_t>(grown, raw + 1);
        dense_.resize(std::min<std::size_t>(grown, kDenseLimit), kUnset);
      }
      NodeId& slot = dense_[raw];
      if (slot == kUnset) slot = NextId();
      return slot;
    }
    auto [it, inserted] = sparse_.try_emplace(raw, NodeId{0});
    if (inserted) it->second = NextId();
    return it->second;
  }

  std::size_t count() const { return next_; }

 private:
  NodeId NextId() {
    if (next_ == kUnset) {
      throw std::runtime_error(
          "ReadEdgeListCsr: more than 2^32 - 1 distinct node ids");
    }
    return next_++;
  }

  static constexpr NodeId kUnset = 0xFFFFFFFFu;
  static constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 26;

  std::vector<NodeId> dense_;
  std::unordered_map<std::uint64_t, NodeId> sparse_;
  NodeId next_ = 0;
};

/// Renumbered (u, v) pairs from pass 1, spilling to a binary temp file
/// once the in-memory buffer exceeds the configured budget. ForEachChunk
/// re-streams the pairs (from memory or the spill file) for each pass-2
/// sweep. The temp file is removed on destruction.
class EdgeSink {
 public:
  EdgeSink(std::size_t spill_edges, std::size_t chunk_bytes,
           std::string temp_dir)
      : spill_limit_entries_(std::max<std::size_t>(spill_edges, 1) * 2),
        chunk_entries_(std::max<std::size_t>(chunk_bytes / sizeof(NodeId), 2)),
        temp_dir_(std::move(temp_dir)) {}

  ~EdgeSink() {
    reader_.close();
    writer_.close();
    if (!spill_path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(spill_path_, ec);
    }
  }

  EdgeSink(const EdgeSink&) = delete;
  EdgeSink& operator=(const EdgeSink&) = delete;

  void Push(NodeId u, NodeId v) {
    buffer_.push_back(u);
    buffer_.push_back(v);
    ++total_edges_;
    if (buffer_.size() >= spill_limit_entries_) Spill();
  }

  /// Flushes any buffered tail to the spill file (if one was started) and
  /// switches to read mode. Call once, after the last Push.
  void FinishWriting() {
    if (!spill_path_.empty() && !buffer_.empty()) Spill();
    if (writer_.is_open()) {
      writer_.flush();
      if (!writer_) {
        throw std::runtime_error("ReadEdgeListCsr: write to spill file '" +
                                 spill_path_ + "' failed (disk full?)");
      }
      writer_.close();
    }
  }

  std::size_t total_edges() const { return total_edges_; }
  bool spilled() const { return !spill_path_.empty(); }

  /// Invokes `fn(data, entries)` over every stored pair, in insertion
  /// order, `entries` always even (u at data[i], v at data[i+1]).
  void ForEachChunk(
      const std::function<void(const NodeId*, std::size_t)>& fn) {
    if (!spilled()) {
      if (!buffer_.empty()) fn(buffer_.data(), buffer_.size());
      return;
    }
    reader_.open(spill_path_, std::ios::binary);
    if (!reader_) {
      throw std::runtime_error("ReadEdgeListCsr: cannot reopen spill file '" +
                               spill_path_ + "'");
    }
    std::vector<NodeId> chunk(chunk_entries_ - chunk_entries_ % 2);
    while (reader_) {
      reader_.read(reinterpret_cast<char*>(chunk.data()),
                   static_cast<std::streamsize>(chunk.size() * sizeof(NodeId)));
      const std::size_t got =
          static_cast<std::size_t>(reader_.gcount()) / sizeof(NodeId);
      if (got == 0) break;
      fn(chunk.data(), got);
    }
    reader_.close();
  }

 private:
  void Spill() {
    if (spill_path_.empty()) {
      namespace fs = std::filesystem;
      const fs::path base =
          temp_dir_.empty() ? fs::temp_directory_path() : fs::path(temp_dir_);
      // pid + object address uniquify concurrent ingests without any
      // global counter state.
      spill_path_ =
          (base / ("sgr-ingest-" + std::to_string(::getpid()) + "-" +
                   std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                   ".spill"))
              .string();
      writer_.open(spill_path_, std::ios::binary | std::ios::trunc);
      if (!writer_) {
        throw std::runtime_error(
            "ReadEdgeListCsr: cannot create spill file '" + spill_path_ +
            "'");
      }
    }
    writer_.write(reinterpret_cast<const char*>(buffer_.data()),
                  static_cast<std::streamsize>(buffer_.size() * sizeof(NodeId)));
    if (!writer_) {
      throw std::runtime_error("ReadEdgeListCsr: write to spill file '" +
                               spill_path_ + "' failed (disk full?)");
    }
    buffer_.clear();
  }

  std::vector<NodeId> buffer_;
  std::size_t total_edges_ = 0;
  const std::size_t spill_limit_entries_;
  const std::size_t chunk_entries_;
  const std::string temp_dir_;
  std::string spill_path_;
  std::ofstream writer_;
  std::ifstream reader_;
};

/// Parses an unsigned decimal integer at `*p`, advancing past it.
/// Returns false if no digit is present or the value overflows 64 bits.
inline bool ParseUint(const char*& p, const char* end, std::uint64_t* out) {
  const char* start = p;
  std::uint64_t value = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;
    value = value * 10 + digit;
    ++p;
  }
  if (p == start) return false;
  *out = value;
  return true;
}

inline bool IsBlank(char c) { return c == ' ' || c == '\t'; }

/// Degree-balanced partition of [0, n) into `slices` contiguous node
/// ranges: returns `slices + 1` boundaries such that each range covers
/// roughly total_degree / slices neighbor entries. Used both for the
/// race-free CSR scatter (one range per worker) and the per-node sort.
std::vector<NodeId> DegreeBalancedBounds(const std::vector<std::size_t>& offsets,
                                         std::size_t n, std::size_t slices) {
  std::vector<NodeId> bounds(slices + 1, static_cast<NodeId>(n));
  bounds[0] = 0;
  const std::size_t total = offsets[n];
  for (std::size_t t = 1; t < slices; ++t) {
    const std::size_t target = total / slices * t;
    const auto it =
        std::lower_bound(offsets.begin(), offsets.begin() + n + 1, target);
    const auto node = static_cast<NodeId>(it - offsets.begin());
    bounds[t] = std::max(bounds[t - 1], std::min(node, static_cast<NodeId>(n)));
  }
  return bounds;
}

std::uint64_t SnapshotCacheKey(std::uint64_t content_hash) {
  std::uint64_t h = kFnvOffset;
  FnvMixU64(h, kIngestFormatVersion);
  FnvMixU64(h, content_hash);
  return h;
}

}  // namespace

std::uint64_t HashFileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("HashFileContents: cannot open '" + path + "'");
  }
  std::uint64_t h = kFnvOffset;
  std::vector<char> chunk(std::size_t{1} << 20);
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    FnvMixBytes(h, chunk.data(), got);
  }
  return h;
}

std::uint64_t CsrContentHash(const CsrGraph& g) {
  std::uint64_t h = kFnvOffset;
  const std::size_t n = g.NumNodes();
  FnvMixU64(h, n);
  for (NodeId v = 0; v < n; ++v) {
    const NeighborSpan nbrs = g.neighbors(v);
    FnvMixU64(h, nbrs.size());
    for (const NodeId w : nbrs) FnvMixU64(h, w);
  }
  return h;
}

std::string HashToHex(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xFu];
    hash >>= 4;
  }
  return out;
}

CsrGraph ReadEdgeListCsr(const std::string& path, const IngestOptions& options,
                         IngestStats* stats_out) {
  IngestStats stats;
  const std::size_t chunk_bytes =
      std::max<std::size_t>(options.chunk_bytes, std::size_t{64} * 1024);
  EdgeSink sink(options.spill_edges, chunk_bytes, options.temp_dir);
  Interner interner;
  bool canonical = false;
  bool any_edge = false;
  bool have_declared_nodes = false;
  std::uint64_t declared_nodes = 0;
  std::uint64_t max_canonical_id = 0;
  std::size_t line_no = 0;

  const auto fail = [&](const std::string& message) -> std::runtime_error {
    return std::runtime_error("ReadEdgeListCsr: " + path + ":" +
                              std::to_string(line_no) + ": " + message);
  };

  const auto handle_comment = [&](const char* b, const char* e) {
    const std::string_view sv(b, static_cast<std::size_t>(e - b));
    if (!any_edge && sv == "# sgr-canonical 1") {
      canonical = true;
      stats.canonical = true;
      return;
    }
    constexpr std::string_view kNodesPrefix = "# nodes ";
    if (canonical && !have_declared_nodes &&
        sv.substr(0, kNodesPrefix.size()) == kNodesPrefix) {
      const char* p = b + kNodesPrefix.size();
      std::uint64_t n = 0;
      if (ParseUint(p, e, &n)) {
        declared_nodes = n;
        have_declared_nodes = true;
      }
    }
  };

  const auto handle_line = [&](const char* b, const char* e) {
    ++line_no;
    if (e > b && e[-1] == '\r') --e;  // CRLF
    if (b == e) return;
    if (*b == '#' || *b == '%') {
      handle_comment(b, e);
      return;
    }
    const char* p = b;
    while (p < e && IsBlank(*p)) ++p;
    std::uint64_t raw_u = 0;
    std::uint64_t raw_v = 0;
    if (!ParseUint(p, e, &raw_u)) {
      throw fail("malformed line: '" + std::string(b, e) + "'");
    }
    if (p == e || !IsBlank(*p)) {
      throw fail("malformed line: '" + std::string(b, e) + "'");
    }
    while (p < e && IsBlank(*p)) ++p;
    if (!ParseUint(p, e, &raw_v)) {
      throw fail("malformed line: '" + std::string(b, e) + "'");
    }
    while (p < e && IsBlank(*p)) ++p;
    if (p != e) {
      // A third column means a weighted/temporal file this unweighted
      // reader would silently misread — reject it.
      const char* t = p;
      while (t < e && !IsBlank(*t)) ++t;
      throw fail("trailing token '" + std::string(p, t) + "' on line '" +
                 std::string(b, e) +
                 "' (weighted/temporal edge lists are not supported)");
    }
    ++stats.edge_lines;
    any_edge = true;
    NodeId u;
    NodeId v;
    if (canonical) {
      if (have_declared_nodes &&
          (raw_u >= declared_nodes || raw_v >= declared_nodes)) {
        throw fail("canonical id out of declared range [0, " +
                   std::to_string(declared_nodes) + ")");
      }
      if (raw_u > 0xFFFFFFFFull || raw_v > 0xFFFFFFFFull) {
        throw fail("canonical ids must fit in 32 bits");
      }
      max_canonical_id = std::max({max_canonical_id, raw_u, raw_v});
      u = static_cast<NodeId>(raw_u);
      v = static_cast<NodeId>(raw_v);
    } else {
      // Intern u before v: first-appearance numbering follows the
      // column order.
      u = interner.Intern(raw_u);
      v = interner.Intern(raw_v);
    }
    sink.Push(u, v);
  };

  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("ReadEdgeListCsr: cannot open '" + path +
                               "'");
    }
    std::vector<char> chunk(chunk_bytes);
    std::string carry;
    while (in) {
      in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      const auto got = static_cast<std::size_t>(in.gcount());
      if (got == 0) break;
      stats.file_bytes += got;
      const char* p = chunk.data();
      const char* end = p + got;
      while (p < end) {
        const char* nl = static_cast<const char*>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        if (nl == nullptr) {
          carry.append(p, end);
          break;
        }
        if (!carry.empty()) {
          carry.append(p, nl);
          handle_line(carry.data(), carry.data() + carry.size());
          carry.clear();
        } else {
          handle_line(p, nl);
        }
        p = nl + 1;
      }
    }
    if (!carry.empty()) {
      handle_line(carry.data(), carry.data() + carry.size());
    }
  }
  sink.FinishWriting();
  stats.spilled = sink.spilled();

  std::size_t n;
  if (canonical) {
    const std::uint64_t derived =
        have_declared_nodes ? declared_nodes
                            : (any_edge ? max_canonical_id + 1 : 0);
    if (derived > 0xFFFFFFFFull) {
      line_no = 0;
      throw fail("canonical node count " + std::to_string(derived) +
                 " exceeds 2^32 - 1");
    }
    n = static_cast<std::size_t>(derived);
  } else {
    n = interner.count();
  }
  stats.raw_nodes = n;
  if (stats_out != nullptr) *stats_out = stats;

  // ---- Pass 2: degree count, sharded scatter, per-node sort. ----

  std::vector<std::size_t> offsets(n + 1, 0);
  sink.ForEachChunk([&](const NodeId* data, std::size_t entries) {
    for (std::size_t i = 0; i < entries; i += 2) {
      ++offsets[data[i] + 1];
      ++offsets[data[i + 1] + 1];
    }
  });
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<NodeId> neighbors(offsets[n]);
  // cursor[v] = next write slot in v's range. A loop (v, v) writes two
  // entries into v's range, per CsrGraph's convention.
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);

  const std::size_t threads = ResolveThreadCount(options.threads);
  if (threads <= 1) {
    sink.ForEachChunk([&](const NodeId* data, std::size_t entries) {
      for (std::size_t i = 0; i < entries; i += 2) {
        const NodeId u = data[i];
        const NodeId v = data[i + 1];
        neighbors[cursor[u]++] = v;
        neighbors[cursor[v]++] = u;
      }
    });
    for (std::size_t v = 0; v < n; ++v) {
      std::sort(neighbors.data() + offsets[v],
                neighbors.data() + offsets[v + 1]);
    }
  } else {
    // One contiguous node range per worker: a node's range is written by
    // exactly one worker, so the scatter is race-free, and the per-node
    // sort below makes the resulting lists independent of the sharding.
    const std::vector<NodeId> bounds = DegreeBalancedBounds(offsets, n, threads);
    ThreadPool pool(threads);
    sink.ForEachChunk([&](const NodeId* data, std::size_t entries) {
      PoolFor(pool, threads, [&](std::size_t t) {
        const NodeId lo = bounds[t];
        const NodeId hi = bounds[t + 1];
        for (std::size_t i = 0; i < entries; i += 2) {
          const NodeId u = data[i];
          const NodeId v = data[i + 1];
          if (u >= lo && u < hi) neighbors[cursor[u]++] = v;
          if (v >= lo && v < hi) neighbors[cursor[v]++] = u;
        }
      });
    });
    const std::vector<NodeId> sort_bounds =
        DegreeBalancedBounds(offsets, n, threads * 8);
    PoolFor(pool, threads * 8, [&](std::size_t t) {
      for (NodeId v = sort_bounds[t]; v < sort_bounds[t + 1]; ++v) {
        std::sort(neighbors.data() + offsets[v],
                  neighbors.data() + offsets[v + 1]);
      }
    });
  }

  return CsrGraph::FromAdjacency(std::move(offsets), std::move(neighbors));
}

IngestResult IngestEdgeListFile(const std::string& path,
                                const IngestOptions& options) {
  IngestResult result;
  result.content_hash = HashFileContents(path);

  std::string cache_path;
  if (!options.cache_dir.empty()) {
    cache_path = SnapshotCachePath(options.cache_dir,
                                   SnapshotCacheKey(result.content_hash));
    CsrGraph cached;
    IngestStats cached_stats;
    if (LoadCsrSnapshot(cache_path, &cached, &cached_stats)) {
      result.graph = std::move(cached);
      result.stats = cached_stats;
      result.from_cache = true;
      return result;
    }
  }

  IngestStats& stats = result.stats;
  result.graph = PreprocessDataset(ReadEdgeListCsr(path, options, &stats),
                                   &stats.self_loops_dropped,
                                   &stats.parallel_edges_collapsed);
  stats.lcc_nodes = result.graph.NumNodes();
  stats.lcc_edges = result.graph.NumEdges();
  if (!cache_path.empty()) {
    SaveCsrSnapshot(cache_path, result.graph, result.stats);
  }
  return result;
}

}  // namespace sgr
