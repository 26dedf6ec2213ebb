// Ablation: the adversarial oracle (crawl-time fault injection). A real
// social-media API is not the cooperative oracle the paper assumes:
// accounts are private or suspended (queries fail), edges are invisible
// to the crawler, the graph churns under the crawl, and the platform
// meters API calls. The workload is the `ablation-noise` built-in
// scenario: the noise axis sweeps the cooperative oracle against each
// fault family on its own — per-node failure 0.2, hidden edges 0.3,
// churn 0.2, and a 40-call API budget — with all six restoration
// methods, so the cells compare how gracefully each method degrades
// (the BENCHMARKS.md robustness table).
//
// This binary is a pre-named `sgr run ablation-noise`: `--json PATH`
// writes a report byte-identical to `sgr run ablation-noise --out PATH`.
// Flags: --threads N (read timings at 1), --json PATH.

#include "bench_common.h"

static int BenchMain(int argc, char** argv) {
  return sgr::bench::RunBuiltinScenarioBench("ablation-noise", argc, argv);
}

int main(int argc, char** argv) {
  return sgr::bench::GuardedMain(BenchMain, argc, argv);
}
