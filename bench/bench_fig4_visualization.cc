// Reproduces Figure 4 of the paper: visual representation of the Anybeat
// graph and of the graphs generated by each method using 10% queried
// nodes.
//
// The paper renders the graphs in Gephi. This bench exports GEXF files
// (./fig4_output/*.gexf) that open directly in Gephi to regenerate the
// pictures, and prints a quantitative proxy of the figure's visual claim:
// subgraph sampling captures the high-degree core but misses the
// low-degree periphery, while the proposed method restores both. The proxy
// is the share of degree-1/degree-2 nodes ("periphery mass") and the node/
// edge totals of each generated graph relative to the original.
//
// Takes no flags. Env knobs: SGR_DATASET_SCALE, SGR_FIG4_DIR.

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/extras.h"
#include "bench_common.h"
#include "dk/dk_extract.h"
#include "exp/runner.h"
#include "exp/table_printer.h"
#include "graph/io.h"
#include "restore/gjoka.h"
#include "restore/proposed.h"
#include "restore/subgraph_method.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "sampling/subgraph.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

constexpr double kRewiringCoefficient = 100.0;
constexpr double kQueryFraction = 0.10;

/// Number of periphery nodes (degree <= 2) — the population of the outer
/// halo in Fig. 4. Crawls miss most of these (a degree-1 node is visible
/// only if its single neighbor was queried), which is exactly what the
/// paper's pictures show.
std::size_t PeripheryCount(const sgr::CsrGraph& g) {
  const sgr::DegreeVector dv = sgr::ExtractDegreeVector(g);
  std::size_t low = 0;
  for (std::size_t k = 0; k <= 2 && k < dv.size(); ++k) {
    low += static_cast<std::size_t>(dv[k]);
  }
  return low;
}

/// Fraction of the original's periphery nodes (degree <= 2) that a crawl
/// saw at all (queried or visible). A degree-1 user enters the sample only
/// if its single friend was queried — this is the paper's "missing outer
/// halo".
double OriginalPeripherySeen(const sgr::CsrGraph& original,
                             const sgr::SamplingList& list) {
  std::vector<bool> seen(original.NumNodes(), false);
  for (const sgr::NodeId v : list.SeenIds()) seen[v] = true;
  std::size_t total = 0;
  std::size_t covered = 0;
  for (sgr::NodeId v = 0; v < original.NumNodes(); ++v) {
    if (original.Degree(v) <= 2) {
      ++total;
      if (seen[v]) ++covered;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(covered) /
                          static_cast<double>(total);
}

}  // namespace

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const Args no_flags(argc, argv, 1, {});
  const std::filesystem::path out_dir =
      EnvText("SGR_FIG4_DIR").value_or("fig4_output");
  std::filesystem::create_directories(out_dir);

  const DatasetSpec spec = DatasetByName("anybeat");
  const CsrGraph original = LoadDatasetCsr(spec);
  std::cout << "=== Figure 4: graph visualization exports (Anybeat, "
            << 100.0 * kQueryFraction << "% queried) ===\n";
  PrintDatasetBanner(spec, original);

  const auto budget = static_cast<std::size_t>(
      kQueryFraction * static_cast<double>(original.NumNodes()));
  Rng rng(0xF164);
  const NodeId seed = static_cast<NodeId>(rng.NextIndex(original.NumNodes()));

  RestorationOptions options;
  options.rewire.rewiring_coefficient = kRewiringCoefficient;

  const double original_periphery =
      static_cast<double>(PeripheryCount(original));
  TablePrinter table(std::cout,
                     {"Graph", "nodes", "edges", "periphery share (deg<=2)",
                      "periphery count vs original", "orig periphery seen",
                      "file"});
  auto report = [&](const std::string& name, const CsrGraph& g,
                    const std::string& seen) {
    const std::string file = (out_dir / (name + ".gexf")).string();
    WriteGexfFile(g, file);
    table.AddRow({name, std::to_string(g.NumNodes()),
                  std::to_string(g.NumEdges()),
                  TablePrinter::Fixed(PeripheryShare(g)),
                  TablePrinter::Fixed(static_cast<double>(PeripheryCount(g)) /
                                      original_periphery),
                  seen, file});
  };
  report("original", original, "1.000");

  {
    QueryOracle oracle(original);
    const SamplingList list = BfsSample(oracle, seed, budget);
    report("bfs", CsrGraph(RestoreBySubgraphSampling(list).graph),
           TablePrinter::Fixed(OriginalPeripherySeen(original, list)));
  }
  {
    QueryOracle oracle(original);
    const SamplingList list =
        SnowballSample(oracle, seed, budget, 50, rng);
    report("snowball", CsrGraph(RestoreBySubgraphSampling(list).graph),
           TablePrinter::Fixed(OriginalPeripherySeen(original, list)));
  }
  {
    QueryOracle oracle(original);
    const SamplingList list =
        ForestFireSample(oracle, seed, budget, 0.7, rng);
    report("forest_fire", CsrGraph(RestoreBySubgraphSampling(list).graph),
           TablePrinter::Fixed(OriginalPeripherySeen(original, list)));
  }
  QueryOracle oracle(original);
  const SamplingList walk = RandomWalkSample(oracle, seed, budget, rng);
  const std::string walk_seen =
      TablePrinter::Fixed(OriginalPeripherySeen(original, walk));
  report("rw", CsrGraph(RestoreBySubgraphSampling(walk).graph), walk_seen);
  // Generated graphs are anonymous (new node ids), so per-node coverage is
  // undefined; the periphery-count column carries the comparison.
  report("gjoka", CsrGraph(RestoreGjoka(walk, options, rng).graph), "n/a");
  report("proposed", CsrGraph(RestoreProposed(walk, options, rng).graph),
         "n/a");

  table.Print();
  std::cout << "\nexpected shape (paper Fig. 4): crawls see only a small "
               "fraction of the original periphery ('orig periphery seen' "
               "well below 1) and lose a third of all nodes, while their "
               "low-degree counts are inflated by truncated visible nodes; "
               "the proposed method restores node/edge totals and a "
               "periphery population close to the original's. Open the "
               ".gexf files in Gephi to reproduce the visual layout.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
