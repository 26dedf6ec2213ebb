// Reproduces Figure 3 of the paper: average L1 distance over the 12
// structural properties as a function of the percentage of queried nodes
// (1%-10%), for the six methods, on the Anybeat / Brightkite / Epinions
// stand-ins.
//
// Paper reference points (10% queried, average L1): Anybeat FF 0.099 ->
// Proposed 0.086; Brightkite Gjoka 0.151 -> Proposed 0.075; Epinions Gjoka
// 0.123 -> Proposed 0.058. The expected *shape*: Proposed lowest at every
// fraction, generative methods ahead of raw subgraph sampling.
//
// Env knobs: SGR_RUNS (default 3), SGR_RC (default 100 here; 500 matches
// the paper but multiplies runtime), SGR_PATH_SOURCES, SGR_DATASET_SCALE,
// SGR_FRACTION_STEPS (number of sweep points, default 5). `--json PATH`
// records the run as a structured report (same schema as
// `sgr run fig3-sweep`, one cell per dataset x fraction).

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  using namespace sgr;
  using namespace sgr::bench;

  const BenchConfig config = BenchConfig::FromArgs(argc, argv,
      /*default_runs=*/3, /*default_rc=*/100.0);
  const std::size_t steps =
      EnvInput<std::uint64_t>("SGR_FRACTION_STEPS", 5, 1, 100);

  std::vector<double> fractions;
  for (std::size_t i = 1; i <= steps; ++i) {
    fractions.push_back(0.10 * static_cast<double>(i) /
                        static_cast<double>(steps));
  }

  std::cout << "=== Figure 3: average L1 distance vs % queried nodes ===\n"
            << "runs per point: " << config.runs << ", RC = " << config.rc
            << ", threads = " << ResolveThreadCount(config.threads)
            << "\n\n";

  BenchJsonReport report("bench_fig3_sweep", config);
  for (const char* name : {"anybeat", "brightkite", "epinions"}) {
    const DatasetSpec spec = DatasetByName(name);
    const Graph dataset = LoadDataset(spec);
    PrintDatasetBanner(spec, dataset);

    ExperimentConfig experiment = config.ToExperimentConfig();
    const GraphProperties properties =
        ComputeProperties(dataset, experiment.property_options);

    TablePrinter table(std::cout,
                       {"% queried", "BFS", "Snowball", "FF", "RW",
                        "Gjoka et al.", "Proposed"});
    for (double fraction : fractions) {
      experiment.query_fraction = fraction;
      const ScenarioCell cell =
          RunDataset(spec, dataset, properties, experiment, config.runs,
                     0xF16'3000 + static_cast<std::uint64_t>(
                                      fraction * 1000.0),
                     config.threads);
      report.Add(cell);
      std::vector<std::string> row = {
          TablePrinter::Fixed(100.0 * fraction, 0)};
      for (MethodKind kind :
           {MethodKind::kBfs, MethodKind::kSnowball, MethodKind::kForestFire,
            MethodKind::kRandomWalk, MethodKind::kGjoka,
            MethodKind::kProposed}) {
        row.push_back(TablePrinter::Fixed(
            cell.methods.at(kind).distances.Summarize().mean_average));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::cout << "\n";
  }
  std::cout << "expected shape (paper Fig. 3): Proposed lowest at every "
               "fraction; all methods improve as the budget grows.\n";
  report.WriteIfRequested();
  return 0;
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
