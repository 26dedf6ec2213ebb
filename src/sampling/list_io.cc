#include "sampling/list_io.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/parse.h"

namespace sgr {

namespace {

constexpr char kHeader[] = "# sgr-sampling-list v1";

std::vector<std::string> Tokens(const std::string& line) {
  std::istringstream fields(line);
  std::vector<std::string> tokens;
  for (std::string token; fields >> token;) tokens.push_back(std::move(token));
  return tokens;
}

}  // namespace

void WriteSamplingList(const SamplingList& list, std::ostream& out) {
  out << kHeader << "\n";
  out << "walk " << (list.is_walk() ? 1 : 0) << "\n";
  out << "seq " << list.Length();
  for (const std::uint32_t c : list.Walk()) out << " " << list.OriginalId(c);
  out << "\n";
  for (std::uint32_t c = 0; c < list.NumQueried(); ++c) {
    out << "node " << list.OriginalId(c) << " " << list.Degree(c);
    for (const NodeId w : list.Row(c)) out << " " << w;
    out << "\n";
  }
}

void WriteSamplingListFile(const SamplingList& list,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteSamplingListFile: cannot open '" + path +
                             "'");
  }
  WriteSamplingList(list, out);
}

SamplingList ReadSamplingList(std::istream& in, const std::string& source) {
  std::size_t line_no = 0;
  const auto where = [&] {
    return "ReadSamplingList: " + source + ":" + std::to_string(line_no);
  };
  const auto fail = [&](const std::string& message) {
    return std::runtime_error(where() + ": " + message);
  };
  const auto count = [&](const std::string& token) {
    return static_cast<std::size_t>(ParseInput<std::uint64_t>(token, where()));
  };
  const auto id = [&](const std::string& token) {
    return static_cast<NodeId>(ParseInput<std::uint64_t>(
        token, where(), 0, std::numeric_limits<NodeId>::max()));
  };
  // A record of `fixed` leading tokens followed by exactly `declared` more.
  const auto check_length = [&](const std::vector<std::string>& tokens,
                                std::size_t fixed, std::size_t declared) {
    const std::size_t rest = tokens.size() - fixed;
    if (rest < declared) throw fail("truncated " + tokens[0] + " line");
    if (rest > declared) {
      throw fail("trailing token '" + tokens[fixed + declared] + "'");
    }
  };

  std::string line;
  ++line_no;
  if (!std::getline(in, line) || line != kHeader) {
    throw fail("missing header '" + std::string(kHeader) + "'");
  }
  SamplingListRecorder recorder;
  bool have_walk = false;
  bool is_walk = false;
  std::size_t seq_line = 0;
  std::vector<NodeId> visits;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> tokens = Tokens(line);
    if (tokens.empty()) continue;
    const std::string& tag = tokens[0];
    if (tag == "walk") {
      if (have_walk) throw fail("second walk record");
      check_length(tokens, 1, 1);
      if (tokens[1] != "0" && tokens[1] != "1") {
        throw fail("walk flag '" + tokens[1] + "' is not 0 or 1");
      }
      have_walk = true;
      is_walk = tokens[1] == "1";
    } else if (tag == "seq") {
      if (seq_line != 0) throw fail("second seq record");
      if (tokens.size() < 2) throw fail("truncated seq line");
      check_length(tokens, 2, count(tokens[1]));
      seq_line = line_no;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        visits.push_back(id(tokens[i]));
      }
    } else if (tag == "node") {
      if (tokens.size() < 3) throw fail("truncated node line");
      const NodeId v = id(tokens[1]);
      check_length(tokens, 3, count(tokens[2]));
      if (recorder.Contains(v)) {
        throw fail("second record for node " + std::to_string(v));
      }
      std::vector<NodeId> row;
      row.reserve(tokens.size() - 3);
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        row.push_back(id(tokens[i]));
        if (row.size() > 1 && row[row.size() - 2] > row.back()) {
          throw fail("neighbors of node " + std::to_string(v) +
                     " are not ascending");
        }
      }
      recorder.Record(v, NeighborSpan(row.data(), row.size()));
    } else {
      throw fail("unknown record '" + tag + "'");
    }
  }
  line_no = seq_line;
  for (const NodeId v : visits) {
    if (!recorder.Contains(v)) {
      throw fail("trajectory node " + std::to_string(v) +
                 " has no neighbor record");
    }
    recorder.Visit(v);
  }
  return std::move(recorder).Finish(is_walk);
}

SamplingList ReadSamplingListFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ReadSamplingListFile: cannot open '" + path +
                             "'");
  }
  return ReadSamplingList(in, path);
}

}  // namespace sgr
