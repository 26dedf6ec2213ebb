#ifndef SGR_SAMPLING_LIST_IO_H_
#define SGR_SAMPLING_LIST_IO_H_

#include <iosfwd>
#include <string>

#include "sampling/sampling_list.h"

namespace sgr {

/// Serialization of sampling lists, so that crawling (the expensive,
/// rate-limited step against a live service) can be decoupled from
/// restoration (repeatable offline experimentation on the same sample).
///
/// Text format:
///   # sgr-sampling-list v1
///   walk <0|1>
///   seq <r> <x_1> <x_2> ... <x_r>
///   node <id> <degree> <neighbor_1> ... <neighbor_degree>
/// with one node record per queried node, in ascending id, and each
/// record's neighbors ascending.

/// Writes `list` to `out`.
void WriteSamplingList(const SamplingList& list, std::ostream& out);

/// Writes `list` to the file at `path` (throws std::runtime_error on I/O
/// failure).
void WriteSamplingListFile(const SamplingList& list,
                           const std::string& path);

/// Reads a sampling list from `in`. Throws std::runtime_error naming
/// `source` and the line on malformed input: a bad header, a record
/// shorter or longer than its declared count, an id that is not a decimal
/// NodeId, a walk flag other than 0/1, a second walk/seq record or a
/// second record for one node, a row that is not ascending (every
/// crawler writes ascending rows), or a trajectory node without a
/// neighbor record.
SamplingList ReadSamplingList(std::istream& in,
                              const std::string& source = "<stream>");

/// Reads a sampling list from the file at `path`.
SamplingList ReadSamplingListFile(const std::string& path);

}  // namespace sgr

#endif  // SGR_SAMPLING_LIST_IO_H_
