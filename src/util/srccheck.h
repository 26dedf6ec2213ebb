#ifndef SGR_UTIL_SRCCHECK_H_
#define SGR_UTIL_SRCCHECK_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace sgr {

/// sgr-check: the project's own determinism/concurrency lint pass
/// (docs/ARCHITECTURE.md, "Static analysis & source contracts").
///
/// Every reproduced result rests on one contract: reports and restored
/// graphs are byte-identical for every thread count, with all randomness a
/// pure function of (seed, index). The rules below reject, at the source
/// level, the constructs that historically break that contract:
///
///   nondet-random   rand() / srand / std::random_device — wall-entropy
///                   randomness; everything must flow through util/rng
///                   seeded via DeriveSeed.
///   nondet-clock    time( / clock() / std::chrono::{system,steady,
///                   high_resolution}_clock outside obs/ — the single
///                   sanctioned clock is obs/timer.h.
///   nondet-env      getenv outside exp/runner.cc, home of EnvText —
///                   environment reads scattered through the library make
///                   runs depend on ambient state the report does not
///                   echo.
///   raw-rng         direct std::mt19937 (and friends) construction
///                   outside util/rng and exp/parallel — ad-hoc engines
///                   bypass the (seed, index) derivation scheme.
///   global-state    non-const namespace-scope variables and non-const
///                   static locals outside obs/ — hidden shared state
///                   breaks trial independence; the only sanctioned
///                   globals are the obs registries.
///   float-drift     `float` in analysis/estimation/restore/dk code — the
///                   FP-summation-shape contract is double-only.
///   unordered-iter  any walk of a std::unordered_map / std::unordered_set:
///                   a range-for over one, or NAME.begin() / cbegin()
///                   anywhere (iterator loops, std::accumulate, ...).
///                   No loop body is exempt, since even a floating-point
///                   sum depends on its order. The sanctioned walk is a
///                   range-for over SortedKeys(...) (util/sorted_keys.h);
///                   find() / end() lookups stay legal.
///   unused-allow    an escape-hatch annotation that suppressed nothing —
///                   stale annotations rot into misdocumentation.
///
/// Escape hatch: a construct the contract sanctions is annotated
///
///   // sgr-check: allow(<rule-id>) <reason>
///
/// on the offending line or the line directly above it. The tool records
/// every allow (file, line, rule, reason) and re-prints them in a summary,
/// so the annotations double as the catalogue of where and why the
/// contract bends.
///
/// The implementation is a dependency-free tokenizer plus per-rule token
/// matchers, in the style of util/json: no LLVM, no libclang, fast enough
/// to run on every build. It is deliberately heuristic — a lint, not a
/// proof — and the escape hatch exists precisely for its false positives.

/// One `file:line:col: rule-id: message` finding.
struct CheckDiagnostic {
  std::string file;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string rule;
  std::string message;
};

/// One `// sgr-check: allow(rule) reason` annotation, with how many
/// diagnostics it suppressed (0 = stale, reported as unused-allow).
struct CheckAllow {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string reason;
  std::size_t suppressed = 0;
};

struct CheckResult {
  /// Unsuppressed findings: any entry fails the check.
  std::vector<CheckDiagnostic> violations;

  /// Every allow annotation seen, suppressing or not.
  std::vector<CheckAllow> allows;

  bool Clean() const { return violations.empty(); }
};

/// The checker. Typical use:
///
///   SourceChecker checker;
///   for (file : files) checker.Preload(file.path, file.content);
///   for (file : files) checker.Check(file.path, file.content);
///   PrintCheckReport(checker.TakeResult(), std::cout);
///
/// Preload registers the names (variables, members, accessor functions)
/// declared with unordered container types, so a loop in one file over an
/// accessor declared in another still resolves; Check lints. Rule path
/// exemptions key off the path given here, matched by component/suffix, so
/// absolute and repo-relative spellings behave identically.
class SourceChecker {
 public:
  /// Pass 1: collect unordered-container declarations from one file.
  void Preload(const std::string& path, const std::string& content);

  /// Pass 2: lint one file (Preload of the same content is implied and
  /// need not have happened first for same-file declarations).
  void Check(const std::string& path, const std::string& content);

  /// Finalizes (flags unused allows) and returns the accumulated result.
  /// Call once, after the last Check.
  CheckResult TakeResult();

 private:
  /// A variable declared with an unordered type. A local or parameter is
  /// seen only in tokens [begin, end) of its own file. A class member or
  /// namespace-scope variable is seen bare in its own file and in the file
  /// of the same stem (foo.h / foo.cc), and after `.` / `->` everywhere.
  struct UnorderedVariable {
    std::string name;
    std::string file;
    bool local = false;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  std::vector<UnorderedVariable> direct_unordered_;  // unordered variables
  std::vector<std::string> accessor_unordered_;  // functions RETURNING unordered
  std::vector<std::string> element_unordered_;   // containers OF unordered
  std::vector<std::string> alias_unordered_;     // type aliases of unordered
  CheckResult result_;
  std::vector<CheckAllow> pending_allows_;

  friend class FileLinter;
};

/// Expands each path (file, or directory walked recursively for .h/.cc
/// files in sorted order), preloads every file, then checks every file.
/// Throws std::runtime_error on an unreadable path.
CheckResult CheckSourceTree(const std::vector<std::string>& paths);

/// Prints diagnostics (file:line:col: rule-id: message), the allow
/// summary and the counts.
void PrintCheckReport(const CheckResult& result, std::ostream& out);

}  // namespace sgr

#endif  // SGR_UTIL_SRCCHECK_H_
