#ifndef SGR_DK_DK_SERIES_H_
#define SGR_DK_DK_SERIES_H_

#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace sgr {

/// The dK-series ladder (Section III-C; Mahadevan et al., Orsini et al.):
/// each order preserves strictly more of a *fully known* input graph.
enum class DkOrder {
  k0,    ///< n and average degree only
  k1,    ///< + degree distribution (configuration model)
  k2,    ///< + joint degree distribution
  k2_5,  ///< + degree-dependent clustering (2K + targeting rewiring)
};

/// Generates a random dK-graph of the given order from a complete input
/// graph. This is the full-data counterpart of the restoration pipeline:
/// the same construction and rewiring engines, driven by exact extracted
/// statistics instead of re-weighted estimates. `rewiring_coefficient`
/// applies to 2.5K only (the paper and Orsini et al. use 500).
///
/// Section III-C's claim — dK-graphs reproduce the original's structure
/// increasingly well as d grows, with 2.5K capturing even global
/// properties — is checked by tests/dk_series_test.cc and regenerated by
/// bench/bench_dk_ladder.
Graph GenerateDkGraph(const CsrGraph& original, DkOrder order, Rng& rng,
                      double rewiring_coefficient = 500.0);

}  // namespace sgr

#endif  // SGR_DK_DK_SERIES_H_
