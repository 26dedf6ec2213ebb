#ifndef SGR_UTIL_PARSE_H_
#define SGR_UTIL_PARSE_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
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

/// The command-line flags of one command, every one "--name value". A flag
/// the command does not declare, a flag without a value and (through
/// Get) a missing required flag or a malformed value throw InputError
/// naming the flag.
class Args {
 public:
  /// Parses argv[first..argc) against the declared flag names `known`
  /// (without their leading "--").
  Args(int argc, char** argv, int first,
       std::initializer_list<const char*> known);

  /// The value of a required flag.
  std::string Get(const std::string& key) const;

  std::string GetOr(const std::string& key, const std::string& dflt) const;

  /// The value of a flag naming a file or directory, or `dflt` when the
  /// flag is absent. An empty value throws InputError naming the flag:
  /// it would otherwise read as "no path" and silently switch off what
  /// the flag asked for.
  std::string GetPathOr(const std::string& key,
                        const std::string& dflt) const;

  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  /// The flag's value parsed strictly (ParseInput), or `dflt` when the
  /// flag is absent.
  template <typename T>
  T Get(const std::string& key, T dflt,
        T min = std::numeric_limits<T>::lowest(),
        T max = std::numeric_limits<T>::max()) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt
                               : ParseInput<T>(it->second, "--" + key, min,
                                               max);
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sgr

#endif  // SGR_UTIL_PARSE_H_
