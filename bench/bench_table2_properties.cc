// Reproduces Table II of the paper: the L1 distance of each of the 12
// structural properties for each method, using 10% queried nodes, on the
// Slashdot / Gowalla / Livemocha stand-ins.
//
// Expected shape (paper Table II): subgraph sampling biases n and P(k)
// heavily (L1 ~ 0.24-0.44 for n) while the generative methods fix those;
// the proposed method beats Gjoka et al. decisively on c(k) and P(s)
// (e.g. Slashdot c(k): 0.708 -> 0.205) and on most global properties.
//
// Env knobs: SGR_RUNS (default 3), SGR_RC (default 100; paper uses 500),
// SGR_FRACTION (default 0.10), SGR_PATH_SOURCES, SGR_DATASET_SCALE.
// `--json PATH` records the run as a structured report (same schema as
// `sgr run table2`).

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const BenchConfig config =
      BenchConfig::FromArgs(argc, argv, /*default_runs=*/3, /*default_rc=*/100.0);
  std::cout << "=== Table II: per-property L1 distance, "
            << 100.0 * config.fraction << "% queried ===\n"
            << "runs: " << config.runs << ", RC = " << config.rc
            << ", threads = " << ResolveThreadCount(config.threads) << "\n\n";

  BenchJsonReport report("bench_table2_properties", config);
  for (const char* name : {"slashdot", "gowalla", "livemocha"}) {
    const DatasetSpec spec = DatasetByName(name);
    const CsrGraph dataset(LoadDataset(spec));
    PrintDatasetBanner(spec, dataset);

    const ExperimentConfig experiment = config.ToExperimentConfig();
    const GraphProperties properties =
        ComputeProperties(dataset, experiment.property_options);
    const ScenarioCell cell =
        RunDataset(spec, dataset, properties, experiment, config.runs,
                   0x7AB'2000, config.threads);
    report.Add(cell);

    std::vector<std::string> headers = {"Method"};
    for (const auto& prop : PropertyNames()) headers.push_back(prop);
    TablePrinter table(std::cout, headers);
    for (MethodKind kind :
         {MethodKind::kBfs, MethodKind::kSnowball, MethodKind::kForestFire,
          MethodKind::kRandomWalk, MethodKind::kGjoka,
          MethodKind::kProposed}) {
      const DistanceSummary summary =
          cell.methods.at(kind).distances.Summarize();
      std::vector<std::string> row = {MethodName(kind)};
      for (double d : summary.mean_per_property) {
        row.push_back(TablePrinter::Fixed(d));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::cout << "\n";
  }
  std::cout
      << "expected shape (paper Table II): Proposed/Gjoka fix n, k_avg, "
         "P(k); Proposed additionally fixes knn(k), c(k), P(s), b(k).\n";
  report.WriteIfRequested();
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
