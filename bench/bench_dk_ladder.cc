// dK-series ladder (Section III-C background): generate 0K/1K/2K/2.5K
// graphs from the *fully known* Anybeat stand-in and measure the 12
// structural properties' average L1 at each rung. This regenerates the
// qualitative claim the restoration method is built on — "dK-graphs more
// accurately reproduce the structural properties of a given graph as d
// increases", with 2.5K capturing even the global properties (Gjoka et
// al.'s 2.5K result, reproduced here with full data rather than samples).
//
// Env knobs: SGR_RC (default 200), SGR_PATH_SOURCES, SGR_DATASET_SCALE,
// SGR_DATASET (default "anybeat").


#include "bench_common.h"
#include "dk/dk_series.h"

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const BenchConfig config =
      BenchConfig::FromArgs(argc, argv, /*default_runs=*/1,
                            /*default_rc=*/200.0);
  const DatasetSpec spec =
      DatasetByName(EnvText("SGR_DATASET").value_or("anybeat"));
  const Graph original = LoadDataset(spec);
  const CsrGraph snapshot(original);
  std::cout << "=== dK-series ladder (full-data generation) ===\n";
  PrintDatasetBanner(spec, snapshot);
  std::cout << "RC (2.5K rewiring) = " << config.rc << ", threads = "
            << ResolveThreadCount(config.threads) << "\n\n";

  PropertyOptions prop_options;
  prop_options.max_path_sources = config.path_sources;
  // The ladder is one generation chain (the rungs share an RNG), so the
  // threads flag accelerates the property evaluation instead.
  prop_options.threads = config.threads;
  const GraphProperties truth = ComputeProperties(snapshot, prop_options);

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
    const Graph g = GenerateDkGraph(original, order, rng, config.rc);
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
