#include "graph/io.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace sgr {

namespace {

/// Calls `fn(u, v)` once per edge of `g`, u <= v, in ascending (u, v)
/// order straight off the sorted CSR ranges: once per parallel copy, and
/// once per loop (a loop contributes two entries to its range).
template <typename Fn>
void ForEachEdge(const CsrGraph& g, Fn&& fn) {
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const NeighborSpan nbrs = g.neighbors(v);
    std::size_t i = 0;
    while (i < nbrs.size()) {
      const NodeId w = nbrs[i];
      std::size_t run = 1;
      while (i + run < nbrs.size() && nbrs[i + run] == w) ++run;
      i += run;
      if (w < v) continue;  // each edge once, off the lower endpoint
      const std::size_t copies = (w == v) ? run / 2 : run;
      for (std::size_t c = 0; c < copies; ++c) fn(v, w);
    }
  }
}

}  // namespace

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# nodes " << g.NumNodes() << " edges " << g.NumEdges() << "\n";
  for (const Edge& e : g.edges()) out << e.u << " " << e.v << "\n";
}

void WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteEdgeListFile: cannot open '" + path + "'");
  }
  WriteEdgeList(g, out);
}

void WriteCanonicalEdgeList(const CsrGraph& g, std::ostream& out) {
  out << "# sgr-canonical 1\n";
  out << "# nodes " << g.NumNodes() << " edges " << g.NumEdges() << "\n";
  ForEachEdge(g, [&](NodeId u, NodeId v) { out << u << " " << v << "\n"; });
}

void WriteCanonicalEdgeListFile(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteCanonicalEdgeListFile: cannot open '" +
                             path + "'");
  }
  WriteCanonicalEdgeList(g, out);
  out.flush();
  if (!out) {
    throw std::runtime_error("WriteCanonicalEdgeListFile: write to '" +
                             path + "' failed");
  }
}

void WriteGexf(const CsrGraph& g, std::ostream& out) {
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<gexf xmlns=\"http://www.gexf.net/1.2draft\" version=\"1.2\">\n"
      << "  <graph mode=\"static\" defaultedgetype=\"undirected\">\n"
      << "    <attributes class=\"node\">\n"
      << "      <attribute id=\"0\" title=\"degree\" type=\"integer\"/>\n"
      << "    </attributes>\n"
      << "    <nodes>\n";
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    out << "      <node id=\"" << v << "\"><attvalues>"
        << "<attvalue for=\"0\" value=\"" << g.Degree(v)
        << "\"/></attvalues></node>\n";
  }
  out << "    </nodes>\n    <edges>\n";
  std::size_t id = 0;
  ForEachEdge(g, [&](NodeId u, NodeId v) {
    out << "      <edge id=\"" << id++ << "\" source=\"" << u
        << "\" target=\"" << v << "\"/>\n";
  });
  out << "    </edges>\n  </graph>\n</gexf>\n";
}

void WriteGexfFile(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteGexfFile: cannot open '" + path + "'");
  }
  WriteGexf(g, out);
}

}  // namespace sgr
