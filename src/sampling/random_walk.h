#ifndef SGR_SAMPLING_RANDOM_WALK_H_
#define SGR_SAMPLING_RANDOM_WALK_H_

#include <cstddef>

#include "sampling/sampling_list.h"
#include "util/rng.h"

namespace sgr {

/// Simple random walk (Section III-B): starting from `seed`, repeatedly move
/// to an endpoint of an edge chosen uniformly at random from N(x_i).
/// The walk continues until `target_queried` distinct nodes have been
/// queried (the paper's stopping rule: a given percentage of queried nodes),
/// with a hard cap of `max_steps` walk steps as a safety valve for
/// pathological inputs (0 means no cap).
///
/// Returns the sampling list L with `is_walk()` true.
SamplingList RandomWalkSample(QueryOracle& oracle, NodeId seed,
                              std::size_t target_queried, Rng& rng,
                              std::size_t max_steps = 0);

}  // namespace sgr

#endif  // SGR_SAMPLING_RANDOM_WALK_H_
