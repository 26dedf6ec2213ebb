// Reproduces Table III of the paper: the average and standard deviation of
// the L1 distance over the 12 structural properties, using 10% queried
// nodes, for all six datasets and all six methods.
//
// Paper reference (average ± SD, Proposed column): Anybeat 0.086±0.062,
// Brightkite 0.075±0.061, Epinions 0.058±0.055, Slashdot 0.063±0.057,
// Gowalla 0.097±0.089, Livemocha 0.099±0.105 — the lowest value in every
// row. Expected shape here: Proposed achieves the lowest average on every
// dataset.
//
// Env knobs: SGR_RUNS (default 3), SGR_RC (default 100), SGR_FRACTION,
// SGR_PATH_SOURCES, SGR_DATASET_SCALE. `--json PATH` records the run as a
// structured report (same schema as `sgr run table3`).

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const BenchConfig config =
      BenchConfig::FromArgs(argc, argv, /*default_runs=*/3, /*default_rc=*/100.0);
  std::cout << "=== Table III: average +- SD of L1 over 12 properties, "
            << 100.0 * config.fraction << "% queried ===\n"
            << "runs: " << config.runs << ", RC = " << config.rc
            << ", threads = " << ResolveThreadCount(config.threads) << "\n\n";

  BenchJsonReport report("bench_table3_summary", config);
  TablePrinter table(std::cout, {"Dataset", "BFS", "Snowball", "FF", "RW",
                                 "Gjoka et al.", "Proposed"});
  for (const DatasetSpec& spec : StandardDatasets()) {
    const CsrGraph dataset(LoadDataset(spec));
    PrintDatasetBanner(spec, dataset);
    const ExperimentConfig experiment = config.ToExperimentConfig();
    const GraphProperties properties =
        ComputeProperties(dataset, experiment.property_options);
    const ScenarioCell cell =
        RunDataset(spec, dataset, properties, experiment, config.runs,
                   0x7AB'3000, config.threads);
    std::vector<std::string> row = {spec.name};
    for (MethodKind kind :
         {MethodKind::kBfs, MethodKind::kSnowball, MethodKind::kForestFire,
          MethodKind::kRandomWalk, MethodKind::kGjoka,
          MethodKind::kProposed}) {
      const DistanceSummary s = cell.methods.at(kind).distances.Summarize();
      row.push_back(TablePrinter::PlusMinus(s.mean_average, s.mean_sd));
    }
    table.AddRow(std::move(row));
    report.Add(cell);
  }
  std::cout << "\n";
  table.Print();
  report.WriteIfRequested();
  std::cout << "\nexpected shape (paper Table III): the Proposed column has "
               "the lowest average on every dataset.\n";
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
