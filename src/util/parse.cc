#include "util/parse.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>

namespace sgr {

namespace {

template <typename T>
std::string RangeText(T min, T max) {
  std::ostringstream out;
  if (max != std::numeric_limits<T>::max()) {
    out << " in [" << min << ", " << max << "]";
  } else if (min != std::numeric_limits<T>::lowest()) {
    out << " >= " << min;
  }
  return out.str();
}

[[noreturn]] void Reject(const std::string& text, const std::string& source,
                         const std::string& expected) {
  throw InputError(source + " = '" + text + "': expected " + expected);
}

}  // namespace

template <>
std::uint64_t ParseInput<std::uint64_t>(const std::string& text,
                                        const std::string& source,
                                        std::uint64_t min, std::uint64_t max) {
  const std::string expected = "an unsigned integer" + RangeText(min, max);
  if (text.empty() || text.find_first_not_of("0123456789") !=
                          std::string::npos) {
    Reject(text, source, expected);
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || value < min || value > max) {
    Reject(text, source, expected);
  }
  return static_cast<std::uint64_t>(value);
}

template <>
double ParseInput<double>(const std::string& text, const std::string& source,
                          double min, double max) {
  const std::string expected = "a finite number" + RangeText(min, max);
  // strtod skips leading whitespace; a value that needs trimming is
  // malformed input, not a number.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    Reject(text, source, expected);
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(value) ||
      value < min || value > max) {
    Reject(text, source, expected);
  }
  return value;
}

template <>
bool ParseInput<bool>(const std::string& text, const std::string& source,
                      bool /*min*/, bool /*max*/) {
  if (text != "0" && text != "1") Reject(text, source, "0 or 1");
  return text == "1";
}

Args::Args(int argc, char** argv, int first,
           std::initializer_list<const char*> known) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw InputError("expected --flag value, got '" + key + "'");
    }
    key = key.substr(2);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::string accepted;
      for (const char* flag : known) accepted += std::string(" --") + flag;
      throw InputError("unknown flag --" + key + " (accepted:" +
                       (accepted.empty() ? " none" : accepted) + ")");
    }
    values_[key] = argv[++i];
  }
}

std::string Args::Get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    throw InputError("missing required flag --" + key);
  }
  return it->second;
}

std::string Args::GetOr(const std::string& key,
                        const std::string& dflt) const {
  auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

std::string Args::GetPathOr(const std::string& key,
                            const std::string& dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  if (it->second.empty()) {
    throw InputError("--" + key + " needs a path, got an empty value");
  }
  return it->second;
}

}  // namespace sgr
