// dK-series ladder (Section III-C background): generate 0K/1K/2K/2.5K
// graphs from the *fully known* Anybeat stand-in and measure the 12
// structural properties' average L1 at each rung. This regenerates the
// qualitative claim the restoration method is built on — "dK-graphs more
// accurately reproduce the structural properties of a given graph as d
// increases", with 2.5K capturing even the global properties (Gjoka et
// al.'s 2.5K result, reproduced here with full data rather than samples).
//
// Takes no flags. Env knobs: SGR_DATASET_SCALE, SGR_DATASET (default
// "anybeat"). Every rung is evaluated on one thread, like every trial.

#include <string>
#include <utility>
#include <vector>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "bench_common.h"
#include "dk/dk_series.h"
#include "exp/runner.h"
#include "exp/table_printer.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

constexpr double kRewiringCoefficient = 200.0;  ///< RC of the 2.5K rung
constexpr std::size_t kPathSources = 600;

}  // namespace

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const Args no_flags(argc, argv, 1, {});
  const DatasetSpec spec =
      DatasetByName(EnvText("SGR_DATASET").value_or("anybeat"));
  const CsrGraph original = LoadDatasetCsr(spec);
  std::cout << "=== dK-series ladder (full-data generation) ===\n";
  PrintDatasetBanner(spec, original);
  std::cout << "RC (2.5K rewiring) = " << kRewiringCoefficient << "\n\n";

  PropertyOptions prop_options;
  prop_options.max_path_sources = kPathSources;
  const GraphProperties truth = ComputeProperties(original, prop_options);

  std::vector<std::string> headers = {"Order"};
  for (const auto& name : PropertyNames()) headers.push_back(name);
  headers.push_back("AVG");
  TablePrinter table(std::cout, headers);

  Rng rng(0xD2);
  const std::pair<DkOrder, const char*> orders[] = {
      {DkOrder::k0, "0K"},
      {DkOrder::k1, "1K"},
      {DkOrder::k2, "2K"},
      {DkOrder::k2_5, "2.5K"},
  };
  for (const auto& [order, label] : orders) {
    const Graph g = GenerateDkGraph(original, order, rng, kRewiringCoefficient);
    const auto distances =
        PropertyDistances(truth, ComputeProperties(CsrGraph(g), prop_options));
    std::vector<std::string> row = {label};
    for (double d : distances) row.push_back(TablePrinter::Fixed(d));
    row.push_back(TablePrinter::Fixed(AverageDistance(distances)));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::cout << "\nexpected shape: the AVG column decreases down the ladder; "
               "P(k) snaps to ~0 at 1K, knn(k) at 2K, c(k) drops sharply "
               "at 2.5K, and the global columns tighten alongside.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
