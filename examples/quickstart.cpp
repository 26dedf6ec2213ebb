// Quickstart: restore a social graph from a 10% random-walk sample.
//
// This is the end-to-end workflow of the paper in ~40 lines:
//   hidden graph -> random walk (query access only) -> proposed
//   restoration -> compare 12 structural properties with the original.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [edge_list.txt]
//
// With no argument a synthetic social graph is generated; pass an edge
// list (e.g. a SNAP dataset) to run on real data.

#include <iostream>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "exp/table_printer.h"
#include "graph/components.h"
#include "graph/edge_list_reader.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "sampling/random_walk.h"

int main(int argc, char** argv) {
  using namespace sgr;

  // 1. The "hidden" social graph. In a real deployment this lives behind
  //    an API; here we load or generate it, preprocessed as in the paper.
  Rng rng(2022);
  const CsrGraph original = PreprocessDataset(
      argc > 1 ? ReadEdgeListCsr(argv[1])
               : CsrGraph(GeneratePowerlawCluster(3000, 4, 0.4, rng)));
  std::cout << "original graph: n = " << original.NumNodes()
            << ", m = " << original.NumEdges() << "\n";

  // 2. Crawl 10% of the nodes by a simple random walk through the query
  //    oracle (the only access the method gets).
  QueryOracle oracle(original);
  const auto budget = original.NumNodes() / 10;
  const SamplingList walk = RandomWalkSample(
      oracle, static_cast<NodeId>(rng.NextIndex(original.NumNodes())),
      budget, rng);
  std::cout << "random walk: " << walk.Length() << " steps, "
            << walk.NumQueried() << " nodes queried ("
            << 100.0 * static_cast<double>(walk.NumQueried()) /
                   static_cast<double>(original.NumNodes())
            << "%)\n";

  // 3. Restore.
  RestorationOptions options;  // RC = 500, as in the paper
  const RestorationResult result = RestoreProposed(walk, options, rng);
  std::cout << "restored graph: n = " << result.graph.NumNodes()
            << ", m = " << result.graph.NumEdges() << " (generated in "
            << TablePrinter::Fixed(result.total_seconds, 2) << " s, of which "
            << TablePrinter::Fixed(result.rewiring_seconds, 2)
            << " s rewiring)\n\n";

  // 4. Evaluate: normalized L1 distance of the 12 structural properties.
  const GraphProperties p_original = ComputeProperties(original);
  const GraphProperties p_restored =
      ComputeProperties(CsrGraph(result.graph));
  const auto distances = PropertyDistances(p_original, p_restored);

  TablePrinter table(std::cout, {"Property", "L1 distance"});
  for (std::size_t i = 0; i < kNumProperties; ++i) {
    table.AddRow({PropertyNames()[i], TablePrinter::Fixed(distances[i])});
  }
  table.AddRow({"AVERAGE", TablePrinter::Fixed(AverageDistance(distances))});
  table.Print();
  return 0;
}
