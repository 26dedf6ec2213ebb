#ifndef SGR_TESTS_SAMPLE_HELPERS_H_
#define SGR_TESTS_SAMPLE_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sampling/sampling_list.h"

namespace sgr {

/// A hand-built sampling list, recorded through SamplingListRecorder like
/// a crawl: `rows` holds each queried node's neighbor list and `visits`
/// the visit sequence.
inline SamplingList HandBuiltList(
    bool is_walk, const std::vector<NodeId>& visits,
    const std::vector<std::pair<NodeId, std::vector<NodeId>>>& rows) {
  SamplingListRecorder recorder;
  for (const auto& [v, row] : rows) {
    recorder.Record(v, NeighborSpan(row.data(), row.size()));
  }
  for (const NodeId v : visits) recorder.Visit(v);
  return std::move(recorder).Finish(is_walk);
}

/// The visit sequence in original ids.
inline std::vector<NodeId> Visits(const SamplingList& list) {
  std::vector<NodeId> visits;
  for (const std::uint32_t c : list.Walk()) {
    visits.push_back(list.OriginalId(c));
  }
  return visits;
}

/// Compact id of queried node `original` (the queried ids are ascending);
/// NumQueried() when it was not queried.
inline std::uint32_t QueriedId(const SamplingList& list, NodeId original) {
  const auto queried_end = list.SeenIds().begin() + list.NumQueried();
  const auto it = std::lower_bound(list.SeenIds().begin(), queried_end,
                                   original);
  if (it == queried_end || *it != original) {
    return static_cast<std::uint32_t>(list.NumQueried());
  }
  return static_cast<std::uint32_t>(it - list.SeenIds().begin());
}

}  // namespace sgr

#endif  // SGR_TESTS_SAMPLE_HELPERS_H_
