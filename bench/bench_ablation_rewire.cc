// Ablation: rewiring candidate set E~ \ E' (proposed, Section IV-E) versus
// all edges E~ (Gjoka et al.'s choice), holding everything else fixed.
//
// The paper claims excluding E' (i) improves the odds that rewiring
// approaches ĉ̄(k) and (ii) cuts the rewiring time. The workload is the
// `ablation-rewire` built-in scenario: the protect_subgraph axis sweeps
// {true, false} through the full proposed pipeline, so each dataset gets
// adjacent protected/unprotected cells (each cell draws its own seed
// base per the engine's seeding contract; the trial averages carry the
// comparison) — compare the "final D" / "rewire s" columns across the
// pair (and the 12-property distances for the ground-truth effect of
// sacrificing subgraph edges: the unprotected variant drives D — the
// distance to the noisy *estimate* — lower while its distance to the
// original grows).
//
// This binary is a pre-named `sgr run ablation-rewire`: `--json PATH`
// writes a report byte-identical to `sgr run ablation-rewire --out PATH`.
// Flags: --threads N (read timings at 1), --json PATH.

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  return sgr::bench::RunBuiltinScenarioBench("ablation-rewire", argc, argv);
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
