// Ablation: the rewiring budget RC (Section IV-E / V-E). The paper sets
// RC = 500 following Orsini et al. and notes that decreasing RC cuts the
// rewiring time but also the reproducibility of the clustering
// coefficients. The workload is the `ablation-rc` built-in scenario: the
// rc axis sweeps {0, 10, 50, 100, 250, 500} on the Brightkite stand-in;
// the per-cell "final D" column (and the report's "rewire" stats block)
// carries the objective trajectory, the "rewire s" column the cost.
//
// This binary is a pre-named `sgr run ablation-rc`: `--json PATH` writes
// a report byte-identical to `sgr run ablation-rc --out PATH`. Flags:
// --threads N (read timings at 1), --json PATH.

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  return sgr::bench::RunBuiltinScenarioBench("ablation-rc", argc, argv);
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
