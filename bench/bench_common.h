#ifndef SGR_BENCH_BENCH_COMMON_H_
#define SGR_BENCH_BENCH_COMMON_H_

#include <exception>
#include <iostream>

#include "exp/datasets.h"
#include "graph/csr_graph.h"

namespace sgr::bench {

/// Every bench's `main`: runs `run(argc, argv)` and turns an escaping
/// exception — a malformed flag or SGR_* variable, a missing dataset
/// file — into its message on stderr and exit status 1, as `sgr` does.
inline int GuardedMain(int (*run)(int, char**), int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
}

/// Prints the standard bench banner with the dataset's actual size next to
/// the paper's Table I reference size.
inline void PrintDatasetBanner(const DatasetSpec& spec, const CsrGraph& g) {
  std::cout << "## dataset " << spec.name << ": n = " << g.NumNodes()
            << ", m = " << g.NumEdges() << "  (paper: n = "
            << spec.paper_nodes << ", m = " << spec.paper_edges << ")\n";
}

}  // namespace sgr::bench

#endif  // SGR_BENCH_BENCH_COMMON_H_
