#ifndef SGR_GRAPH_EDGE_LIST_READER_H_
#define SGR_GRAPH_EDGE_LIST_READER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "graph/csr_graph.h"

namespace sgr {

/// Out-of-core SNAP/edge-list ingestion: the one edge-list parser.
///
/// ReadEdgeListCsr builds a raw CsrGraph directly from the file in two
/// passes:
///
///   Pass 1 (sequential, streaming): large-buffer chunked reads with a
///   manual integer scanner (no istream machinery), first-appearance
///   renumbering (the k-th distinct raw id becomes node k), and the
///   renumbered (u, v) pairs appended to an edge buffer that spills to a
///   binary temp file once it exceeds `spill_edges` — the file never has
///   to fit in memory as text.
///
///   Pass 2: degree count, then a CSR scatter sharded by node range over
///   the existing ThreadPool (each worker scans the shared edge chunk and
///   scatters only the endpoints in its node range, so no two workers
///   touch one node), then a per-node sort. The result is identical at
///   any worker count, because the sort makes the scatter order
///   irrelevant.
///
/// The raw read keeps every edge line: self-loops and parallel edges
/// stay, as CsrGraph's multigraph conventions describe them.
/// IngestEdgeListFile is the dataset path: it applies the paper's
/// preprocessing (PreprocessDataset in graph/components.h, Section V-A:
/// loops dropped, parallel edges collapsed, largest connected component
/// kept and densely renumbered in ascending-id order) to that raw read.
///
/// Format: lines may be '#'/'%' comments, use spaces or tabs, and end in
/// CRLF. An edge line is exactly two unsigned decimal ids; a sign, a
/// non-digit or an id past 64 bits is rejected, and so are trailing
/// tokens, since a third column means a weighted or temporal file this
/// reader would silently misread. Ids may exceed 32 bits (renumbering
/// interns them).
///
/// Canonical files: a leading `# sgr-canonical 1` marker (written by
/// WriteCanonicalEdgeList) declares ids already dense [0, N); the reader
/// then keeps them verbatim instead of renumbering, which makes export
/// -> re-ingest an exact identity — the property the CI ingest-determinism
/// gate diffs end to end.
struct IngestOptions {
  /// Worker threads for the CSR scatter and per-node sort (0 = hardware
  /// concurrency). The result is identical for every value.
  std::size_t threads = 1;

  /// Content-hash-keyed snapshot cache directory (empty = no cache). On
  /// a hit the CSR arrays are loaded directly from the binary snapshot
  /// (graph/snapshot_cache.h) and the text file is never re-parsed; a
  /// corrupt entry is reported to stderr and rebuilt.
  std::string cache_dir;

  /// Read granularity of the streaming passes.
  std::size_t chunk_bytes = std::size_t{1} << 22;  // 4 MiB

  /// In-memory edge budget of pass 1; beyond it, renumbered edges spill
  /// to a binary temp file that pass 2 re-streams.
  std::size_t spill_edges = std::size_t{1} << 26;  // 64M edges (512 MiB)

  /// Directory for the spill file (empty = std::filesystem's temp dir).
  std::string temp_dir;
};

/// Ingestion counters, reported by `sgr datasets ingest` and recorded in
/// the snapshot cache so a cache hit still attributes its numbers.
struct IngestStats {
  std::size_t file_bytes = 0;        ///< bytes read from the text file
  std::size_t edge_lines = 0;        ///< non-comment lines parsed
  std::size_t raw_nodes = 0;         ///< distinct ids before preprocessing
  std::size_t self_loops_dropped = 0;
  std::size_t parallel_edges_collapsed = 0;
  std::size_t lcc_nodes = 0;         ///< nodes of the returned snapshot
  std::size_t lcc_edges = 0;         ///< edges of the returned snapshot
  bool canonical = false;            ///< `# sgr-canonical 1` marker seen
  bool spilled = false;              ///< pass 1 used the temp file
};

struct IngestResult {
  CsrGraph graph;
  /// FNV-1a-64 over the raw file bytes — the provenance hash echoed into
  /// sgr-report/1 environment blocks and the snapshot-cache key.
  std::uint64_t content_hash = 0;
  IngestStats stats;
  bool from_cache = false;
};

/// Reads the edge list at `path` as a raw CsrGraph: first-appearance ids
/// (verbatim ids for a canonical file), loops and parallel edges kept.
/// Reads `threads`, `chunk_bytes`, `spill_edges` and `temp_dir` of
/// `options`; never touches the cache. `stats` (optional) receives the
/// parse counters (file_bytes, edge_lines, raw_nodes, canonical,
/// spilled). Throws std::runtime_error on an unreadable file or malformed
/// content, with the path and line number in the message.
CsrGraph ReadEdgeListCsr(const std::string& path,
                         const IngestOptions& options = {},
                         IngestStats* stats = nullptr);

/// Ingests the edge list at `path` as a dataset: a snapshot-cache lookup,
/// then PreprocessDataset(ReadEdgeListCsr(path, options)), then a cache
/// save. Throws as ReadEdgeListCsr does.
IngestResult IngestEdgeListFile(const std::string& path,
                                const IngestOptions& options = {});

/// FNV-1a-64 over the raw bytes of the file at `path`. Throws
/// std::runtime_error if the file cannot be read.
std::uint64_t HashFileContents(const std::string& path);

/// Hash of a snapshot's content: FNV-1a-64 over node count and every
/// (degree, neighbor list) in node order. This is the value the CI ingest
/// gate compares across worker counts.
std::uint64_t CsrContentHash(const CsrGraph& g);

/// 16-digit lowercase hex of `hash` (the provenance echo format).
std::string HashToHex(std::uint64_t hash);

}  // namespace sgr

#endif  // SGR_GRAPH_EDGE_LIST_READER_H_
