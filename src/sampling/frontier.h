#ifndef SGR_SAMPLING_FRONTIER_H_
#define SGR_SAMPLING_FRONTIER_H_

#include <cstddef>

#include "sampling/sampling_list.h"
#include "util/rng.h"

namespace sgr {

/// Frontier sampling — Ribeiro & Towsley's multidimensional random walk
/// (IMC 2010, reference [13] of the paper): `num_walkers` coupled walkers
/// hold positions v_1..v_L; at each step a walker is chosen with
/// probability proportional to its current degree, then moves like a
/// simple random walk. The process is equivalent to a single random walk
/// on the L-fold tensor product graph, which keeps the edge-sampling law
/// of a simple walk while being robust to disconnected components and
/// reducing estimator variance.
///
/// The returned trajectory is the sequence of *moved-to* nodes (after the
/// initial walker positions), with `is_walk()` true: consecutive entries
/// are edge-biased samples, so the re-weighted estimators for n̂, k̂̄,
/// P̂(k) and P̂TE(k,k') apply unchanged. The clustering estimator's
/// interior term mixes walkers and is not meaningful on this list; the
/// restoration pipeline should keep using the simple walk (this crawler
/// serves estimator studies and subgraph sampling).
///
/// Stops once `target_queried` distinct nodes have been queried;
/// `max_steps` caps the trajectory (0 = no cap).
SamplingList FrontierSample(QueryOracle& oracle,
                            const std::vector<NodeId>& seeds,
                            std::size_t target_queried, Rng& rng,
                            std::size_t max_steps = 0);

}  // namespace sgr

#endif  // SGR_SAMPLING_FRONTIER_H_
