// crawl_and_visualize: export Gephi-ready views of a crawl and its
// restoration (the Fig. 4 workflow).
//
// Crawls a hidden graph by random walk, restores it with the proposed
// method, and writes three GEXF files:
//   original.gexf   the hidden graph
//   subgraph.gexf   what the crawl actually saw (G')
//   restored.gexf   the proposed method's output (contains G')
// plus a short structural report: how much of the periphery (degree <= 2
// nodes) each view retains — the quantitative core of the paper's
// visualization argument.
//
// Usage: ./build/examples/crawl_and_visualize [out_dir] [fraction]

#include <filesystem>
#include <iostream>

#include "analysis/extras.h"
#include "exp/table_printer.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

int main(int argc, char** argv) {
  using namespace sgr;

  const std::filesystem::path out_dir =
      argc > 1 ? argv[1] : "visualization_output";
  const double fraction = argc > 2 ? std::atof(argv[2]) : 0.1;
  std::filesystem::create_directories(out_dir);

  Rng rng(4242);
  const CsrGraph original = PreprocessDataset(
      CsrGraph(GenerateSocialGraph(2500, 4, 0.35, 0.4, rng)));

  QueryOracle oracle(original);
  const auto budget = static_cast<std::size_t>(
      fraction * static_cast<double>(original.NumNodes()));
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(original.NumNodes())),
      budget, rng);
  const Subgraph subgraph = BuildSubgraph(walk);

  RestorationOptions options;
  options.rewire.rewiring_coefficient = 100.0;
  const RestorationResult restored = RestoreProposed(walk, options, rng);

  TablePrinter table(std::cout,
                     {"View", "nodes", "edges", "periphery share"});
  auto row = [&](const std::string& name, const std::string& file,
                 const CsrGraph& g) {
    WriteGexfFile(g, (out_dir / file).string());
    table.AddRow({name, std::to_string(g.NumNodes()),
                  std::to_string(g.NumEdges()),
                  TablePrinter::Fixed(PeripheryShare(g))});
  };
  row("original", "original.gexf", original);
  row("crawl subgraph (G')", "subgraph.gexf", CsrGraph(subgraph.graph));
  row("restored (proposed)", "restored.gexf", CsrGraph(restored.graph));
  table.Print();

  std::cout << "\nGEXF files written to " << out_dir
            << "/ — open them in Gephi (size nodes by the exported "
               "'degree' attribute, ForceAtlas2 layout) to reproduce the "
               "visual comparison of the paper's Fig. 4.\n";
  return 0;
}
