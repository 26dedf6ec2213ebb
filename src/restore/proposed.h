#ifndef SGR_RESTORE_PROPOSED_H_
#define SGR_RESTORE_PROPOSED_H_

#include "restore/method.h"
#include "sampling/sampling_list.h"
#include "util/rng.h"

namespace sgr {

/// The paper's proposed social-graph restoration method (Section IV).
///
/// Given the sampling list of a simple random walk, the method
///   1. builds the induced subgraph G' (Section III-D),
///   2. estimates the five local properties by re-weighted random walk
///      (Section III-E),
///   3. constructs the target degree vector, assigning a target degree to
///      every subgraph node (Section IV-B, Algorithms 1-2),
///   4. constructs the target joint degree matrix (Section IV-C,
///      Algorithms 3-4),
///   5. adds nodes and edges to G' realizing both targets (Section IV-D,
///      Algorithm 5),
///   6. rewires the non-subgraph edges toward the estimated
///      degree-dependent clustering coefficient (Section IV-E,
///      Algorithm 6).
///
/// The generated graph contains G' as a subgraph, exactly realizes
/// {n*(k)} and {m*(k,k')}, and approximately realizes {ĉ̄(k)}.
///
/// `list.is_walk()` must be true (the estimators require a Markov chain).
RestorationResult RestoreProposed(const SamplingList& list,
                                  const RestorationOptions& options,
                                  Rng& rng);

}  // namespace sgr

#endif  // SGR_RESTORE_PROPOSED_H_
