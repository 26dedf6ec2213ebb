#include "scenario/diff.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "scenario/spec.h"

namespace sgr {

namespace {

/// Member access that names the offending location, so a malformed or
/// truncated report is diagnosable from the error alone.
const Json& RequireMember(const Json& object, const char* key,
                          const std::string& where) {
  const Json* member = object.Find(key);
  if (member == nullptr) {
    throw std::runtime_error("report " + where + ": missing '" + key + "'");
  }
  return *member;
}

double RequireNumber(const Json& object, const char* key,
                     const std::string& where) {
  const Json& member = RequireMember(object, key, where);
  if (!member.IsNumber()) {
    throw std::runtime_error("report " + where + ": '" + key +
                             "' must be a number");
  }
  return member.AsNumber();
}

std::string RequireString(const Json& object, const char* key,
                          const std::string& where) {
  const Json& member = RequireMember(object, key, where);
  if (!member.IsString()) {
    throw std::runtime_error("report " + where + ": '" + key +
                             "' must be a string");
  }
  return member.AsString();
}

std::string StringOr(const Json& object, const char* key,
                     const std::string& fallback) {
  const Json* member = object.Find(key);
  return member != nullptr && member->IsString() ? member->AsString()
                                                 : fallback;
}

double NumberOr(const Json& object, const char* key, double fallback) {
  const Json* member = object.Find(key);
  return member != nullptr && member->IsNumber() ? member->AsNumber()
                                                 : fallback;
}

/// Pairing identity of one cell: the dataset plus every knob coordinate
/// (spec.h, CellCoordinates). The canonical form is a dumped JSON array,
/// so number formatting is the writer's shortest-round-trip form on both
/// sides.
std::string CellKey(const Json& cell, const Json& defaults) {
  Json key = Json::Array();
  key.Push(Json::String(StringOr(cell, "dataset", "?")));
  const Json coordinates = CellCoordinates(cell, defaults);
  for (const auto& [name, value] : coordinates.ObjectMembers()) {
    (void)name;
    key.Push(value);
  }
  return key.Dump(0);
}

std::string Label(const Json& cell, const Json& defaults) {
  return CellLabel(StringOr(cell, "dataset", "?"), cell, defaults);
}

std::map<std::string, const Json*> IndexCells(const Json& report,
                                              const Json& defaults) {
  std::map<std::string, const Json*> index;
  for (const Json& cell : report.Find("cells")->Items()) {
    std::string key = CellKey(cell, defaults);
    // Distinct cells never share a key (axes are duplicate-free), but a
    // hand-edited report might; disambiguate rather than drop data.
    while (index.count(key) > 0) key += "#";
    index.emplace(std::move(key), &cell);
  }
  return index;
}

struct Comparator {
  const DiffOptions& options;
  DiffResult& result;

  void Finding(bool regression, std::string message) {
    result.findings.push_back({regression, std::move(message)});
  }

  /// Deterministic values must agree to within l1_tolerance (optionally
  /// scaled for count-like fields); drift in either direction means the
  /// pipeline changed and the baseline no longer describes it.
  void CompareDeterministic(const std::string& what, double old_value,
                            double new_value, double scale = 1.0) {
    // NaN needs explicit handling: every comparison below is false for a
    // NaN drift, which would wave a NaN-corrupted report through the
    // gate. Two NaNs agree (the report writer emits NaN literals for
    // legitimately non-finite distances); a NaN appearing on one side
    // only is a regression.
    if (std::isnan(old_value) || std::isnan(new_value)) {
      if (std::isnan(old_value) != std::isnan(new_value)) {
        std::ostringstream message;
        message << what << ": " << old_value << " -> " << new_value
                << " (NaN on one side only)";
        Finding(true, message.str());
      }
      return;
    }
    const double drift = std::abs(new_value - old_value);
    result.max_l1_drift = std::max(result.max_l1_drift, drift / scale);
    if (drift > options.l1_tolerance * scale) {
      std::ostringstream message;
      message << what << ": " << old_value << " -> " << new_value
              << " (drift " << drift << ", tolerance "
              << options.l1_tolerance * scale << ")";
      Finding(true, message.str());
    }
  }

  /// Timing fields are compared as ratios. A new value that is itself
  /// sub-millisecond cannot be a slowdown worth flagging (scheduler
  /// noise at CI scale), but a sub-millisecond *old* value must not
  /// blind the gate — a 1 ms baseline blowing up to 10 s is exactly what
  /// this tool exists to catch — so the ratio denominator is clamped to
  /// the noise floor instead of skipping the comparison.
  void CompareTiming(const std::string& what, double old_value,
                     double new_value) {
    if (!options.compare_timings) return;
    constexpr double kMinMeaningfulSeconds = 1e-3;
    if (!std::isfinite(old_value) || !std::isfinite(new_value) ||
        new_value < kMinMeaningfulSeconds) {
      return;
    }
    const double ratio =
        new_value / std::max(old_value, kMinMeaningfulSeconds);
    result.max_time_ratio = std::max(result.max_time_ratio, ratio);
    if (ratio > 1.0 + options.time_tolerance) {
      std::ostringstream message;
      message << what << ": " << old_value << "s -> " << new_value
              << "s (" << ratio << "x, tolerance "
              << 1.0 + options.time_tolerance << "x)";
      Finding(true, message.str());
    } else if (ratio < 1.0 / (1.0 + options.time_tolerance)) {
      std::ostringstream message;
      message << what << ": " << old_value << "s -> " << new_value
              << "s (" << ratio << "x faster)";
      Finding(false, message.str());
    }
  }

  void CompareMethods(const std::string& label, const Json& old_cell,
                      const Json& new_cell) {
    std::map<std::string, const Json*> new_methods;
    for (const Json& method : new_cell.Find("methods")->Items()) {
      new_methods[method.Find("method")->AsString()] = &method;
    }
    for (const Json& old_method : old_cell.Find("methods")->Items()) {
      const std::string name = old_method.Find("method")->AsString();
      const auto it = new_methods.find(name);
      if (it == new_methods.end()) {
        Finding(true, label + " / " + name +
                          ": method missing from the new report");
        continue;
      }
      const Json& new_method = *it->second;
      ++result.methods_compared;
      const std::string where = label + " / " + name;

      const Json& old_distances = *old_method.Find("distances");
      const Json& new_distances = *new_method.Find("distances");
      CompareDeterministic(where + " avg L1",
                           old_distances.Find("average")->AsNumber(),
                           new_distances.Find("average")->AsNumber());
      const Json* new_props = new_distances.Find("per_property");
      for (const auto& [property, old_value] :
           old_distances.Find("per_property")->ObjectMembers()) {
        const Json* new_value =
            new_props == nullptr ? nullptr : new_props->Find(property);
        if (new_value == nullptr || !new_value->IsNumber()) {
          Finding(true, where + ": property '" + property +
                            "' missing from the new report");
          continue;
        }
        CompareDeterministic(where + " " + property, old_value.AsNumber(),
                             new_value->AsNumber());
      }

      // Deterministic counts, compared relative to the old magnitude.
      // Reports from before each field existed lack it.
      for (const char* field : {"sample_steps", "oracle_queries"}) {
        const Json* old_count = old_method.Find(field);
        const Json* new_count = new_method.Find(field);
        if (old_count != nullptr && new_count != nullptr) {
          CompareDeterministic(
              where + " " + field, old_count->AsNumber(),
              new_count->AsNumber(),
              std::max(1.0, std::abs(old_count->AsNumber())));
        }
      }

      CompareConvergence(where, old_method.Find("convergence"),
                         new_method.Find("convergence"));

      const Json* old_timings = old_method.Find("timings");
      const Json* new_timings = new_method.Find("timings");
      if (old_timings != nullptr && new_timings != nullptr) {
        for (const char* field : {"restore_seconds", "rewiring_seconds"}) {
          CompareTiming(where + " " + field,
                        NumberOr(*old_timings, field, 0.0),
                        NumberOr(*new_timings, field, 0.0));
        }
      }
    }
  }

  /// The property tracker's convergence curve is deterministic content
  /// like the rewire counters. A curve the old report recorded must
  /// still be there and agree point by point; a curve appearing only in
  /// the new report is a note (the baseline predates the tracker knob),
  /// not a regression.
  void CompareConvergence(const std::string& where, const Json* old_block,
                          const Json* new_block) {
    const bool old_has = old_block != nullptr && old_block->IsObject();
    const bool new_has = new_block != nullptr && new_block->IsObject();
    if (!old_has && !new_has) return;
    if (old_has && !new_has) {
      Finding(true, where +
                        ": convergence curve missing from the new report");
      return;
    }
    if (!old_has) {
      Finding(false, where +
                         ": convergence curve is new (not in the old "
                         "report)");
      return;
    }
    CompareDeterministic(where + " convergence stopped_early",
                         NumberOr(*old_block, "stopped_early", 0.0),
                         NumberOr(*new_block, "stopped_early", 0.0));
    const Json* old_samples = old_block->Find("samples");
    const Json* new_samples = new_block->Find("samples");
    if (old_samples == nullptr || !old_samples->IsArray() ||
        new_samples == nullptr || !new_samples->IsArray()) {
      return;
    }
    if (old_samples->Items().size() != new_samples->Items().size()) {
      std::ostringstream message;
      message << where << ": convergence curve length changed ("
              << old_samples->Items().size() << " -> "
              << new_samples->Items().size() << ")";
      Finding(true, message.str());
      return;
    }
    for (std::size_t i = 0; i < old_samples->Items().size(); ++i) {
      const Json& old_point = old_samples->Items()[i];
      const Json& new_point = new_samples->Items()[i];
      const std::string point_where =
          where + " convergence[" + std::to_string(i) + "]";
      // Count-like fields compare relative to the old magnitude (the
      // sample_steps convention); the distance fields compare absolutely.
      for (const char* field : {"attempts", "components", "lcc"}) {
        const double old_value = NumberOr(old_point, field, 0.0);
        CompareDeterministic(point_where + " " + field, old_value,
                             NumberOr(new_point, field, 0.0),
                             std::max(1.0, std::abs(old_value)));
      }
      for (const char* field : {"objective", "clustering_global"}) {
        CompareDeterministic(point_where + " " + field,
                             NumberOr(old_point, field, 0.0),
                             NumberOr(new_point, field, 0.0));
      }
    }
  }
};

}  // namespace

void ValidateReportSchema(const Json& document) {
  if (!document.IsObject()) {
    throw std::runtime_error("report: document must be a JSON object");
  }
  const std::string schema = RequireString(document, "schema", "top level");
  if (schema != "sgr-report/1") {
    throw std::runtime_error("report: unsupported schema '" + schema +
                             "' (expected sgr-report/1)");
  }
  const Json& cells = RequireMember(document, "cells", "top level");
  if (!cells.IsArray()) {
    throw std::runtime_error("report: 'cells' must be an array");
  }
  std::size_t cell_index = 0;
  for (const Json& cell : cells.Items()) {
    const std::string where = "cells[" + std::to_string(cell_index) + "]";
    if (!cell.IsObject()) {
      throw std::runtime_error("report " + where + ": must be an object");
    }
    (void)RequireString(cell, "dataset", where);
    (void)RequireNumber(cell, kQueryFractionKey, where);
    const Json& methods = RequireMember(cell, "methods", where);
    if (!methods.IsArray()) {
      throw std::runtime_error("report " + where +
                               ": 'methods' must be an array");
    }
    std::size_t method_index = 0;
    for (const Json& method : methods.Items()) {
      const std::string method_where =
          where + ".methods[" + std::to_string(method_index) + "]";
      if (!method.IsObject()) {
        throw std::runtime_error("report " + method_where +
                                 ": must be an object");
      }
      (void)RequireString(method, "method", method_where);
      const Json& distances =
          RequireMember(method, "distances", method_where);
      if (!distances.IsObject()) {
        throw std::runtime_error("report " + method_where +
                                 ": 'distances' must be an object");
      }
      (void)RequireNumber(distances, "average", method_where);
      const Json& per_property =
          RequireMember(distances, "per_property", method_where);
      if (!per_property.IsObject()) {
        throw std::runtime_error("report " + method_where +
                                 ": 'per_property' must be an object");
      }
      for (const auto& [property, value] : per_property.ObjectMembers()) {
        if (!value.IsNumber()) {
          throw std::runtime_error("report " + method_where +
                                   ": property '" + property +
                                   "' must be a number");
        }
      }
      ++method_index;
    }
    ++cell_index;
  }
}

DiffResult DiffReports(const Json& old_report, const Json& new_report,
                       const DiffOptions& options) {
  ValidateReportSchema(old_report);
  ValidateReportSchema(new_report);

  DiffResult result;
  result.timings_compared = options.compare_timings;
  Comparator compare{options, result};

  const Json old_defaults = CellKnobDefaults(old_report.Find("config"));
  const Json new_defaults = CellKnobDefaults(new_report.Find("config"));
  const auto old_cells = IndexCells(old_report, old_defaults);
  const auto new_cells = IndexCells(new_report, new_defaults);

  for (const auto& [key, old_cell] : old_cells) {
    const auto it = new_cells.find(key);
    const std::string label = Label(*old_cell, old_defaults);
    if (it == new_cells.end()) {
      compare.Finding(true,
                      label + ": cell missing from the new report");
      continue;
    }
    const Json& new_cell = *it->second;
    ++result.cells_compared;

    // Protocol fields: a changed trial count or seed base makes the
    // numbers legitimately different — surface it so a drift finding
    // below is attributable.
    for (const char* field : {"trials", "seed_base"}) {
      const double old_value = NumberOr(*old_cell, field, 0.0);
      const double new_value = NumberOr(new_cell, field, 0.0);
      if (old_value != new_value) {
        std::ostringstream message;
        message << label << ": " << field << " changed (" << old_value
                << " -> " << new_value << ")";
        compare.Finding(false, message.str());
      }
    }

    compare.CompareMethods(label, *old_cell, new_cell);

    const Json* old_timings = old_cell->Find("timings");
    const Json* new_timings = new_cell.Find("timings");
    if (old_timings != nullptr && new_timings != nullptr) {
      compare.CompareTiming(label + " wall_seconds",
                            NumberOr(*old_timings, "wall_seconds", 0.0),
                            NumberOr(*new_timings, "wall_seconds", 0.0));
    }
  }
  for (const auto& [key, new_cell] : new_cells) {
    if (old_cells.count(key) == 0) {
      compare.Finding(false, Label(*new_cell, new_defaults) +
                                 ": new cell (not in the old report)");
    }
  }
  return result;
}

void PrintDiffMarkdown(const DiffResult& result,
                       const std::string& old_label,
                       const std::string& new_label, std::ostream& out) {
  out << "## `sgr diff`: `" << old_label << "` → `" << new_label
      << "`\n\n"
      << "| | |\n"
      << "| --- | --- |\n"
      << "| Result | "
      << (result.HasRegression() ? "**REGRESSION**" : "OK") << " |\n"
      << "| Cells compared | " << result.cells_compared << " |\n"
      << "| Method aggregates | " << result.methods_compared << " |\n"
      << "| Max deterministic drift | " << result.max_l1_drift << " |\n"
      << "| Max timing ratio | ";
  if (result.timings_compared) {
    out << result.max_time_ratio << "x";
  } else {
    out << "n/a (timings not compared)";
  }
  out << " |\n";
  for (const bool regressions : {true, false}) {
    out << (regressions ? "\n### Regressions\n\n" : "\n### Notes\n\n");
    bool any = false;
    for (const DiffFinding& finding : result.findings) {
      if (finding.regression != regressions) continue;
      out << "- " << finding.message << "\n";
      any = true;
    }
    if (!any) out << "None.\n";
  }
}

void PrintDiff(const DiffResult& result, std::ostream& out) {
  for (const DiffFinding& finding : result.findings) {
    if (finding.regression) out << "REGRESSION  " << finding.message << "\n";
  }
  for (const DiffFinding& finding : result.findings) {
    if (!finding.regression) out << "note        " << finding.message << "\n";
  }
  out << "compared " << result.cells_compared << " cell(s), "
      << result.methods_compared << " method aggregate(s); max "
      << "deterministic drift " << result.max_l1_drift
      << ", max timing ratio " << result.max_time_ratio << "x\n"
      << (result.HasRegression() ? "RESULT: REGRESSION" : "RESULT: OK")
      << "\n";
}

}  // namespace sgr
