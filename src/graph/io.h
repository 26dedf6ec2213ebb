#ifndef SGR_GRAPH_IO_H_
#define SGR_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace sgr {

/// Graph serialization.
///
/// Edge-list format: one `u v` pair per line; `#` and `%` lines are
/// comments. This matches the format of the SNAP / networkrepository
/// datasets the paper uses, so real data drops in directly; the one
/// reader is ReadEdgeListCsr / IngestEdgeListFile in
/// graph/edge_list_reader.h. GEXF export supports the Fig. 4
/// visualization workflow (the files open in Gephi).

/// Writes `g` as an edge list (one edge per line) to `out`.
void WriteEdgeList(const Graph& g, std::ostream& out);

/// Writes `g` as an edge list to the file at `path`.
void WriteEdgeListFile(const Graph& g, const std::string& path);

/// Writes `g` in the *canonical* edge-list form understood by the
/// out-of-core ingester (graph/edge_list_reader.h): a `# sgr-canonical 1`
/// marker, a `# nodes N edges M` header, then one `u v` line per edge
/// with u <= v, emitted in ascending (u, v) order straight off the CSR
/// ranges. The marker declares that ids are already dense [0, N) — the
/// ingester preserves them verbatim instead of renumbering by first
/// appearance, which is what makes export -> re-ingest an exact identity
/// (first-appearance renumbering alone cannot reproduce arbitrary id
/// assignments; e.g. the edge set {0-2, 1-2} admits no edge order whose
/// first appearances are 0, 1, 2). Loops are emitted once per loop,
/// parallel edges once per copy.
void WriteCanonicalEdgeList(const CsrGraph& g, std::ostream& out);

/// Writes the canonical form to the file at `path`.
void WriteCanonicalEdgeListFile(const CsrGraph& g, const std::string& path);

/// Writes `g` in GEXF 1.2 format with node degrees exported as a
/// visualization attribute (size by degree reproduces the look of Fig. 4
/// in Gephi). Edges are listed in the canonical writer's order, one
/// element per loop or parallel copy.
void WriteGexf(const CsrGraph& g, std::ostream& out);

/// Writes GEXF to the file at `path`.
void WriteGexfFile(const CsrGraph& g, const std::string& path);

}  // namespace sgr

#endif  // SGR_GRAPH_IO_H_
