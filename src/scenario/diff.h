#ifndef SGR_SCENARIO_DIFF_H_
#define SGR_SCENARIO_DIFF_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.h"

namespace sgr {

/// Thresholds of the report comparison. The deterministic content of an
/// sgr-report/1 file is a pure function of (spec, seed), so the L1
/// tolerance defaults to a hair above FP noise — any real change to the
/// pipeline moves the distances by orders of magnitude more. Timings are
/// wall-clock and machine-dependent; their tolerance is relative and
/// should stay generous (CI compares runs from different hardware).
struct DiffOptions {
  /// Allowed drift of deterministic values (per-method average L1, the
  /// per-property distances, sample_steps — the latter relative to the
  /// old value). Exceeding it in either direction is a regression: same
  /// spec + seed must reproduce the same numbers, and an intentional
  /// change means re-recording the baseline.
  double l1_tolerance = 1e-9;

  /// Allowed relative slowdown of timing fields: new > old * (1 +
  /// time_tolerance) is a regression. Speedups are reported as info.
  double time_tolerance = 0.5;

  /// When false, timing fields are ignored entirely (the StripVolatile
  /// view of the comparison).
  bool compare_timings = true;
};

/// One comparison outcome. `regression` findings drive the nonzero exit
/// of `sgr diff`; the rest are informational.
struct DiffFinding {
  bool regression = false;
  std::string message;
};

/// Result of comparing two reports.
struct DiffResult {
  std::vector<DiffFinding> findings;
  std::size_t cells_compared = 0;
  std::size_t methods_compared = 0;
  double max_l1_drift = 0.0;   ///< worst deterministic drift seen
  double max_time_ratio = 0.0; ///< worst new/old timing ratio seen
  /// Whether timing fields participated (DiffOptions::compare_timings):
  /// when false, max_time_ratio is meaningless and the renderers say so.
  bool timings_compared = true;

  bool HasRegression() const {
    for (const DiffFinding& finding : findings) {
      if (finding.regression) return true;
    }
    return false;
  }
};

/// Validates that `document` is a structurally sound sgr-report/1 file:
/// top-level object with schema == "sgr-report/1" and a "cells" array
/// whose entries carry a dataset, a query fraction, and a methods array
/// of {method, distances{average, per_property}} objects. Throws
/// std::runtime_error naming the first offending element. (The knob keys
/// introduced with the axis schema — walk, crawler, estimator, rc,
/// protect_subgraph — are optional and default to the paper-faithful
/// values, so reports recorded before the axes existed still validate
/// and pair correctly.)
void ValidateReportSchema(const Json& document);

/// Compares two sgr-report/1 documents. Cells are paired by the dataset
/// and every knob coordinate (CellCoordinates in scenario/spec.h: query
/// fraction, walk, crawler, estimator, rc, protect_subgraph,
/// rewire_batch, frontier_walkers, noise); methods inside a paired cell
/// by name. A coordinate a cell lacks takes its default, or the report's
/// config echo of it, so pre-axis baselines pair with new cells (and a
/// cell without a "noise" block pairs as noise off). Produces a
/// regression finding for every deterministic drift beyond
/// `options.l1_tolerance`, every timing slowdown beyond
/// `options.time_tolerance`, and every cell or method present in `old`
/// but missing from `fresh` (coverage loss); new-only cells and
/// speedups are informational. Validates both schemas first.
DiffResult DiffReports(const Json& old_report, const Json& new_report,
                       const DiffOptions& options = {});

/// Renders the findings (one line each, regressions first) plus a
/// summary line to `out`.
void PrintDiff(const DiffResult& result, std::ostream& out);

/// Renders the diff as a GitHub-flavored-markdown fragment suitable for
/// pasting straight into BENCHMARKS.md: a summary table (result, cell and
/// method-aggregate counts, worst drift and timing ratio) followed by a
/// "Regressions" and a "Notes" section listing the findings verbatim.
/// `old_label` / `new_label` name the two reports in the heading (the CLI
/// passes the file paths). The output is a pure function of the inputs —
/// locked by golden tests.
void PrintDiffMarkdown(const DiffResult& result,
                       const std::string& old_label,
                       const std::string& new_label, std::ostream& out);

}  // namespace sgr

#endif  // SGR_SCENARIO_DIFF_H_
