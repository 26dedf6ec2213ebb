// Ablation / extension: restoring via a non-backtracking random walk.
//
// Section II of the paper notes that improved walks (Lee et al.'s NBRW
// among them) could be combined with the proposed method, "while it is not
// trivial". The workload is the `ablation-walk` built-in scenario: the
// walk axis sweeps {simple, non-backtracking} through the full proposed
// pipeline, with the clustering estimator's normalizer corrected for the
// non-backtracking conditional law by the runner (WalkKind). The "steps"
// column carries NBRW's query efficiency (fewer walk steps for the same
// query budget); the distances carry the restoration-accuracy comparison.
//
// This binary is a pre-named `sgr run ablation-walk`: `--json PATH`
// writes a report byte-identical to `sgr run ablation-walk --out PATH`.
// Flags: --threads N, --json PATH (the spec itself pins every workload
// knob, including dataset_scale).

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  return sgr::bench::RunBuiltinScenarioBench("ablation-walk", argc, argv);
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
