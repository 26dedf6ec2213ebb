#ifndef SGR_GRAPH_SNAPSHOT_CACHE_H_
#define SGR_GRAPH_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <string>

#include "graph/csr_graph.h"

namespace sgr {

struct IngestStats;

/// Binary snapshot cache for ingested CSR graphs.
///
/// Parsing a multi-gigabyte edge list dominates cold-start time at paper
/// scale, so the ingester (graph/edge_list_reader.h) can persist the
/// preprocessed CSR arrays keyed by the *content hash* of the source file
/// (plus the ingest format version): re-running an experiment on an
/// unchanged dataset then loads the arrays straight from disk, and any
/// edit to the file — or to the ingest pipeline — changes the key and
/// misses.
///
/// Format (little-endian, native field widths):
///   "SGRSNAP1" magic, u64 node count, u64 total degree,
///   u64 ingest-stat fields, u64 offsets[n + 1], u32 neighbors[2m],
///   trailing FNV-1a-64 checksum over everything before it.
/// Writes go to a temp file in the cache directory and are renamed into
/// place, so a crashed or concurrent writer never publishes a torn file.

/// Path of the cache entry for `key_hash` under `cache_dir`
/// (sgr-snap-<16 hex digits>.bin).
std::string SnapshotCachePath(const std::string& cache_dir,
                              std::uint64_t key_hash);

/// Loads the snapshot at `path` into `*graph` / `*stats`. Returns false
/// if the file does not exist; a file that exists but fails validation
/// (bad magic, truncation, checksum mismatch) also returns false after
/// printing a warning to stderr — the caller rebuilds and overwrites.
bool LoadCsrSnapshot(const std::string& path, CsrGraph* graph,
                     IngestStats* stats);

/// Writes `graph` and `stats` to `path`
/// atomically, creating the parent directory if needed. Throws
/// std::runtime_error on I/O failure.
void SaveCsrSnapshot(const std::string& path, const CsrGraph& graph,
                     const IngestStats& stats);

}  // namespace sgr

#endif  // SGR_GRAPH_SNAPSHOT_CACHE_H_
