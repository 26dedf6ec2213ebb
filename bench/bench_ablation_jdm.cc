// Ablation: the hybrid joint-degree-distribution estimator (Section III-E)
// versus its two pure components, end to end.
//
// The hybrid uses induced edges (IE) for high-degree pairs — where
// far-apart walk positions supply many adjacency observations — and
// traversed edges (TE) for low-degree pairs — where the walk itself
// samples edges without needing collisions. The workload is the
// `ablation-jdm` built-in scenario: the estimator axis sweeps
// {hybrid, ie, te} through the full proposed pipeline, so the quality of
// each P̂(k,k') variant shows up in the restored graph's 12-property
// distances (the quantity the paper ultimately cares about).
//
// This binary is a pre-named `sgr run ablation-jdm`: `--json PATH` writes
// a report byte-identical to `sgr run ablation-jdm --out PATH`. Flags:
// --threads N, --json PATH.

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  return sgr::bench::RunBuiltinScenarioBench("ablation-jdm", argc, argv);
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
