#include "sampling/sampling_list.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sgr {

const std::vector<NodeId>& SamplingListRecorder::Record(
    NodeId v, NeighborSpan neighbors) {
  const auto [it, inserted] =
      rows_.try_emplace(v, neighbors.begin(), neighbors.end());
  if (inserted) queried_.push_back(v);
  return it->second;
}

SamplingList SamplingListRecorder::Finish(bool is_walk) && {
  SamplingList list;
  list.is_walk_ = is_walk;
  const std::size_t q = queried_.size();
  std::vector<NodeId>& seen = list.seen_;
  seen = std::move(queried_);
  std::sort(seen.begin(), seen.end());

  std::vector<std::size_t>& offsets = list.offsets_;
  offsets.assign(q + 1, 0);
  for (std::size_t c = 0; c < q; ++c) {
    offsets[c + 1] = offsets[c] + rows_.at(seen[c]).size();
  }
  std::vector<NodeId>& neighbors = list.neighbors_;
  neighbors.resize(offsets[q]);
  for (std::size_t c = 0; c < q; ++c) {
    std::vector<NodeId>& row = rows_.at(seen[c]);
    if (!std::is_sorted(row.begin(), row.end())) {
      std::sort(row.begin(), row.end());
    }
    std::copy(row.begin(), row.end(), neighbors.begin() + offsets[c]);
  }
  rows_.clear();

  // Queried nodes take [0, q); a visible node takes the next id the first
  // time an entry names it, scanning the rows in order.
  std::unordered_map<NodeId, std::uint32_t> compact;
  compact.reserve(2 * q);
  for (std::size_t c = 0; c < q; ++c) {
    compact.emplace(seen[c], static_cast<std::uint32_t>(c));
  }
  std::vector<std::uint32_t>& compact_neighbors = list.compact_neighbors_;
  compact_neighbors.resize(neighbors.size());
  for (std::size_t e = 0; e < neighbors.size(); ++e) {
    const auto [it, inserted] = compact.try_emplace(
        neighbors[e], static_cast<std::uint32_t>(seen.size()));
    if (inserted) seen.push_back(neighbors[e]);
    compact_neighbors[e] = it->second;
  }

  list.walk_.reserve(visits_.size());
  for (const NodeId v : visits_) {
    const auto it = compact.find(v);
    if (it == compact.end() || it->second >= q) {
      throw std::invalid_argument("SamplingListRecorder: visited node " +
                                  std::to_string(v) +
                                  " has no neighbor record");
    }
    list.walk_.push_back(it->second);
  }
  return list;
}

}  // namespace sgr
