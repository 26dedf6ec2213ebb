#ifndef SGR_UTIL_PARSE_H_
#define SGR_UTIL_PARSE_H_

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace sgr {

/// A malformed or out-of-range command-line flag or environment variable.
/// The message names the input ("--threads", "SGR_THREADS") and the
/// rejected text.
class InputError : public std::runtime_error {
 public:
  explicit InputError(const std::string& what) : std::runtime_error(what) {}
};

/// The one parser for every flag value and environment variable. The
/// whole of `text` must be one value of T, within [min, max]:
///   std::uint64_t  decimal digits only (no sign, space or suffix)
///   double         one finite strtod number, nothing before or after it
///   bool           "0" or "1"
/// Anything else throws InputError naming `source`. Nothing falls back to a
/// default, and no value outside the range reaches a cast.
template <typename T>
T ParseInput(const std::string& text, const std::string& source,
             T min = std::numeric_limits<T>::lowest(),
             T max = std::numeric_limits<T>::max());

template <>
std::uint64_t ParseInput<std::uint64_t>(const std::string&,
                                        const std::string&, std::uint64_t,
                                        std::uint64_t);
template <>
double ParseInput<double>(const std::string&, const std::string&, double,
                          double);
template <>
bool ParseInput<bool>(const std::string&, const std::string&, bool, bool);

}  // namespace sgr

#endif  // SGR_UTIL_PARSE_H_
