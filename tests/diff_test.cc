#include "scenario/diff.h"

#include <cmath>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "exp/table_printer.h"
#include "scenario/engine.h"
#include "scenario/report.h"
#include "scenario/spec.h"

namespace sgr {
namespace {

// ---------------------------------------------------------------------------
// Handcrafted documents (full control over every compared value)
// ---------------------------------------------------------------------------

/// One-cell report with a single Proposed method entry. `cell_extra` is
/// spliced into the cell object (e.g. R"("rc": 10,)") to exercise the
/// knob pairing; `config` into the top-level config echo; `method_extra`
/// into the method entry (e.g. a "convergence" block).
Json MakeDoc(double average, double wall_seconds, double restore_seconds,
             const std::string& cell_extra = "",
             const std::string& config = R"({"rc": 10})",
             const std::string& method_extra = "") {
  const std::string text = R"({
    "schema": "sgr-report/1",
    "tool": "sgr run",
    "config": )" + config + R"(,
    "environment": {"threads": 1},
    "cells": [
      {"dataset": "tiny", "nodes": 100, "edges": 300,
       "query_fraction": 0.1, )" + cell_extra + R"(
       "seed_base": 7, "trials": 2,
       "methods": [
         {"method": "Proposed",
          "sample_steps": 40, )" + method_extra + R"(
          "distances": {"per_property": {"n": )" +
                           std::to_string(average) + R"(, "m": 0.25},
                        "average": )" + std::to_string(average) + R"(,
                        "sd": 0.1},
          "timings": {"restore_seconds": )" +
                           std::to_string(restore_seconds) + R"(,
                      "rewiring_seconds": 0.2}}],
       "timings": {"wall_seconds": )" + std::to_string(wall_seconds) +
                           R"(}}
    ]
  })";
  return Json::Parse(text);
}

TEST(DiffSchemaTest, AcceptsAWellFormedReport) {
  EXPECT_NO_THROW(ValidateReportSchema(MakeDoc(0.5, 1.0, 0.5)));
}

TEST(DiffSchemaTest, RejectsMalformedReports) {
  const char* bad[] = {
      R"([1, 2])",                                    // not an object
      R"({"cells": []})",                             // missing schema
      R"({"schema": "sgr-report/2", "cells": []})",   // wrong schema
      R"({"schema": "sgr-report/1"})",                // missing cells
      R"({"schema": "sgr-report/1", "cells": [3]})",  // cell not object
      R"({"schema": "sgr-report/1",
          "cells": [{"dataset": "a"}]})",             // missing fraction
      R"({"schema": "sgr-report/1",
          "cells": [{"dataset": "a", "query_fraction": 0.1}]})",
      R"({"schema": "sgr-report/1",
          "cells": [{"dataset": "a", "query_fraction": 0.1,
                     "methods": [{"method": "Proposed"}]}]})",
      R"({"schema": "sgr-report/1",
          "cells": [{"dataset": "a", "query_fraction": 0.1,
                     "methods": [{"method": "Proposed",
                                  "distances": {"average": 1,
                                                "per_property":
                                                  {"n": "x"}}}]}]})",
  };
  for (const char* text : bad) {
    EXPECT_THROW(ValidateReportSchema(Json::Parse(text)),
                 std::runtime_error)
        << text;
  }
}

TEST(DiffReportsTest, IdenticalReportsAreClean) {
  const Json doc = MakeDoc(0.5, 1.0, 0.5);
  const DiffResult result = DiffReports(doc, doc);
  EXPECT_FALSE(result.HasRegression());
  EXPECT_EQ(result.cells_compared, 1u);
  EXPECT_EQ(result.methods_compared, 1u);
  EXPECT_DOUBLE_EQ(result.max_l1_drift, 0.0);
}

TEST(DiffReportsTest, L1DriftIsARegressionInEitherDirection) {
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5);
  for (double new_average : {0.6, 0.4}) {
    const Json new_doc = MakeDoc(new_average, 1.0, 0.5);
    const DiffResult result = DiffReports(old_doc, new_doc);
    EXPECT_TRUE(result.HasRegression()) << new_average;
    EXPECT_GT(result.max_l1_drift, 0.05) << new_average;
  }
  // ...but drift within tolerance is clean.
  DiffOptions loose;
  loose.l1_tolerance = 0.5;
  EXPECT_FALSE(
      DiffReports(old_doc, MakeDoc(0.6, 1.0, 0.5), loose).HasRegression());
}

TEST(DiffReportsTest, TimingRegressionFlaggedAndSkippable) {
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5);
  const Json slow = MakeDoc(0.5, 4.0, 2.0);  // 4x the wall clock
  DiffOptions options;
  options.time_tolerance = 0.5;
  const DiffResult result = DiffReports(old_doc, slow, options);
  EXPECT_TRUE(result.HasRegression());
  EXPECT_GT(result.max_time_ratio, 3.0);

  // The same comparison with timings disabled is clean (deterministic
  // content agrees), and a generous tolerance also passes.
  options.compare_timings = false;
  EXPECT_FALSE(DiffReports(old_doc, slow, options).HasRegression());
  options.compare_timings = true;
  options.time_tolerance = 10.0;
  EXPECT_FALSE(DiffReports(old_doc, slow, options).HasRegression());

  // Speedups are informational, never regressions.
  const Json fast = MakeDoc(0.5, 0.25, 0.125);
  options.time_tolerance = 0.5;
  EXPECT_FALSE(DiffReports(old_doc, fast, options).HasRegression());
}

TEST(DiffReportsTest, SubMillisecondBaselineDoesNotBlindTheTimingGate) {
  // A baseline that happened to record a 0.5 ms timing must still flag a
  // blow-up to seconds (the denominator clamps to the 1 ms noise floor
  // instead of skipping the cell)...
  const Json old_doc = MakeDoc(0.5, 5e-4, 4e-4);
  const Json blown_up = MakeDoc(0.5, 10.0, 8.0);
  DiffOptions options;
  options.time_tolerance = 0.5;
  const DiffResult result = DiffReports(old_doc, blown_up, options);
  EXPECT_TRUE(result.HasRegression());
  EXPECT_GT(result.max_time_ratio, 1000.0);
  // ...while two sub-millisecond reports stay below the noise floor.
  EXPECT_FALSE(
      DiffReports(old_doc, MakeDoc(0.5, 8e-4, 6e-4), options)
          .HasRegression());
}

TEST(DiffReportsTest, CoverageLossIsARegressionNewCellsAreNot) {
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5, R"("rc": 10,)");
  const Json new_doc = MakeDoc(0.5, 1.0, 0.5, R"("rc": 250,)");
  // The old rc=10 cell has no partner in the new report: coverage lost.
  const DiffResult forward = DiffReports(old_doc, new_doc);
  EXPECT_TRUE(forward.HasRegression());
  EXPECT_EQ(forward.cells_compared, 0u);
  // A superset report only adds cells: informational.
  Json superset = MakeDoc(0.5, 1.0, 0.5, R"("rc": 10,)");
  superset.Find("cells")->Push(
      MakeDoc(0.7, 1.0, 0.5, R"("rc": 250,)").Find("cells")->Items()[0]);
  EXPECT_FALSE(DiffReports(old_doc, superset).HasRegression());
}

TEST(DiffReportsTest, PreAxisReportsPairViaTheConfigEcho) {
  // A report recorded before the axis schema has no per-cell "rc" — the
  // config echo supplies the pairing default, so it matches a new-schema
  // report whose cells carry the same rc explicitly.
  const Json old_doc =
      MakeDoc(0.5, 1.0, 0.5, /*cell_extra=*/"", R"({"rc": 10})");
  const Json new_doc = MakeDoc(0.5, 1.0, 0.5, R"("rc": 10,)");
  const DiffResult result = DiffReports(old_doc, new_doc);
  EXPECT_EQ(result.cells_compared, 1u);
  EXPECT_FALSE(result.HasRegression());
}

TEST(DiffReportsTest, PreAxisScalarKnobsPairViaTheConfigEcho) {
  // rewire_batch / frontier_walkers were scalar spec knobs before they
  // became axes: a report from that era carries them only in its config
  // echo, never per cell. It must still pair against a fresh run of the
  // same spec, whose cells echo the knob explicitly.
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5, /*cell_extra=*/"",
                               R"({"rc": 10, "rewire_batch": 64,
                                   "frontier_walkers": 7})");
  const Json new_doc = MakeDoc(
      0.5, 1.0, 0.5,
      R"("rc": 10, "rewire_batch": 64, "frontier_walkers": 7,)");
  const DiffResult result = DiffReports(old_doc, new_doc);
  EXPECT_EQ(result.cells_compared, 1u);
  EXPECT_FALSE(result.HasRegression());
}

TEST(DiffReportsTest, NaNDriftIsARegressionNotATolerancePass) {
  // |NaN - x| is NaN and every NaN comparison is false, so without
  // explicit handling a NaN-corrupted report sails through the gate
  // with "max drift 0 / RESULT: OK". One-sided NaN must be a
  // regression; NaN on both sides is agreement (the writer emits NaN
  // literals for legitimately non-finite distances).
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5);
  Json nan_doc = MakeDoc(0.5, 1.0, 0.5);
  Json& average = *nan_doc.Find("cells")
                       ->Items()[0]
                       .Find("methods")
                       ->Items()[0]
                       .Find("distances")
                       ->Find("average");
  average = Json::Number(std::nan(""));
  EXPECT_TRUE(DiffReports(old_doc, nan_doc).HasRegression());
  EXPECT_TRUE(DiffReports(nan_doc, old_doc).HasRegression());
  EXPECT_FALSE(DiffReports(nan_doc, nan_doc).HasRegression());
}

/// Convergence block with `points` samples. `objective0` sets the first
/// sample's objective so a test can inject deterministic drift into a
/// single point of the curve.
std::string ConvergenceExtra(std::size_t points, double objective0,
                             double stopped_early = 0.0) {
  std::ostringstream out;
  out << R"("convergence": {"stopped_early": )" << stopped_early
      << R"(, "samples": [)";
  for (std::size_t i = 0; i < points; ++i) {
    if (i > 0) out << ", ";
    const double objective = i == 0 ? objective0 : 0.5 / double(i + 1);
    out << R"({"attempts": )" << 100 * (i + 1)
        << R"(, "objective": )" << objective
        << R"(, "clustering_global": 0.3, "components": 2, "lcc": 90})";
  }
  out << "]},";
  return out.str();
}

TEST(DiffReportsTest, MatchingConvergenceCurvesAreClean) {
  const Json doc = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                           ConvergenceExtra(3, 0.9));
  const DiffResult result = DiffReports(doc, doc);
  EXPECT_FALSE(result.HasRegression());
  EXPECT_DOUBLE_EQ(result.max_l1_drift, 0.0);
}

TEST(DiffReportsTest, NewConvergenceCurveIsANoteNotARegression) {
  // A baseline recorded before property tracking existed has no
  // convergence block. Turning tracking on must not fail the gate — the
  // added curve is informational, exactly like a new cell.
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5);
  const Json new_doc = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                               ConvergenceExtra(3, 0.9));
  const DiffResult result = DiffReports(old_doc, new_doc);
  EXPECT_FALSE(result.HasRegression());
  bool noted = false;
  for (const DiffFinding& finding : result.findings) {
    if (!finding.regression &&
        finding.message.find("convergence curve is new") !=
            std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(DiffReportsTest, LostConvergenceCurveIsARegression) {
  // The reverse direction is coverage loss: the old report tracked
  // properties and the new one silently stopped.
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                               ConvergenceExtra(3, 0.9));
  const Json new_doc = MakeDoc(0.5, 1.0, 0.5);
  const DiffResult result = DiffReports(old_doc, new_doc);
  EXPECT_TRUE(result.HasRegression());
}

TEST(DiffReportsTest, ConvergenceDriftIsCaughtPointwise) {
  const Json base = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                            ConvergenceExtra(3, 0.9));
  const Json drifted = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                               ConvergenceExtra(3, 0.8));
  const DiffResult result = DiffReports(base, drifted);
  EXPECT_TRUE(result.HasRegression());
  bool attributed = false;
  for (const DiffFinding& finding : result.findings) {
    if (finding.regression &&
        finding.message.find("convergence[0] objective") !=
            std::string::npos) {
      attributed = true;
    }
  }
  EXPECT_TRUE(attributed);
  // Within tolerance the same pair is clean.
  DiffOptions loose;
  loose.l1_tolerance = 0.5;
  EXPECT_FALSE(DiffReports(base, drifted, loose).HasRegression());
}

TEST(DiffReportsTest, ConvergenceLengthAndStopDriftAreRegressions) {
  const Json base = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                            ConvergenceExtra(3, 0.9));
  // A different sample count cannot be compared point by point.
  const Json shorter = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                               ConvergenceExtra(2, 0.9));
  EXPECT_TRUE(DiffReports(base, shorter).HasRegression());
  // The early-stop fraction is deterministic content too.
  const Json stopped = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})",
                               ConvergenceExtra(3, 0.9, 1.0));
  EXPECT_TRUE(DiffReports(base, stopped).HasRegression());
}

TEST(DiffReportsTest, MissingMethodIsARegression) {
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5);
  Json new_doc = MakeDoc(0.5, 1.0, 0.5);
  *new_doc.Find("cells")->Items()[0].Find("methods")->Items()[0].Find(
      "method") = Json::String("Gjoka et al.");
  EXPECT_TRUE(DiffReports(old_doc, new_doc).HasRegression());
}

// ---------------------------------------------------------------------------
// Markdown rendering (golden outputs over a checked-in report pair)
// ---------------------------------------------------------------------------

TEST(DiffMarkdownTest, CleanComparisonGolden) {
  const Json doc = MakeDoc(0.5, 1.0, 0.5);
  const DiffResult result = DiffReports(doc, doc);
  std::ostringstream out;
  PrintDiffMarkdown(result, "old.json", "new.json", out);
  EXPECT_EQ(out.str(),
            "## `sgr diff`: `old.json` → `new.json`\n"
            "\n"
            "| | |\n"
            "| --- | --- |\n"
            "| Result | OK |\n"
            "| Cells compared | 1 |\n"
            "| Method aggregates | 1 |\n"
            "| Max deterministic drift | 0 |\n"
            "| Max timing ratio | 1x |\n"
            "\n"
            "### Regressions\n"
            "\n"
            "None.\n"
            "\n"
            "### Notes\n"
            "\n"
            "None.\n");
}

TEST(DiffMarkdownTest, RegressionAndNoteGolden) {
  // One deterministic drift (regression) plus one added cell (note):
  // both must land verbatim in their sections, regressions first.
  const Json old_doc = MakeDoc(0.5, 1.0, 0.5);
  Json new_doc = MakeDoc(0.75, 1.0, 0.5);
  new_doc.Find("cells")->Push(
      MakeDoc(0.5, 1.0, 0.5, R"("rc": 250,)").Find("cells")->Items()[0]);
  DiffOptions options;
  options.compare_timings = false;
  const DiffResult result = DiffReports(old_doc, new_doc, options);
  ASSERT_TRUE(result.HasRegression());
  std::ostringstream out;
  PrintDiffMarkdown(result, "BENCH_scenarios.json", "fresh.json", out);
  EXPECT_EQ(out.str(),
            "## `sgr diff`: `BENCH_scenarios.json` → `fresh.json`\n"
            "\n"
            "| | |\n"
            "| --- | --- |\n"
            "| Result | **REGRESSION** |\n"
            "| Cells compared | 1 |\n"
            "| Method aggregates | 1 |\n"
            "| Max deterministic drift | 0.25 |\n"
            "| Max timing ratio | n/a (timings not compared) |\n"
            "\n"
            "### Regressions\n"
            "\n"
            "- tiny @ 10% / Proposed avg L1: 0.5 -> 0.75 (drift 0.25, "
            "tolerance 1e-09)\n"
            "- tiny @ 10% / Proposed n: 0.5 -> 0.75 (drift 0.25, "
            "tolerance 1e-09)\n"
            "\n"
            "### Notes\n"
            "\n"
            "- tiny @ 10% rc=250: new cell (not in the old report)\n");
}

// ---------------------------------------------------------------------------
// End to end against the real engine
// ---------------------------------------------------------------------------

ScenarioSpec TinyDiffSpec() {
  return ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "tiny-diff",
    "datasets": [{"name": "tiny-powerlaw", "model": "powerlaw",
                  "nodes": 150, "edges_per_node": 3, "triad_p": 0.4,
                  "seed": 11}],
    "fractions": [0.1],
    "methods": ["rw", "proposed"],
    "rc": [5, 20],
    "trials": 2,
    "seed_base": 99,
    "path_sources": 20
  })"));
}

TEST(DiffReportsTest, TwoRunsOfTheSameScenarioDiffClean) {
  const Json a = ScenarioReportToJson(RunScenario(TinyDiffSpec(), 1));
  const Json b = ScenarioReportToJson(RunScenario(TinyDiffSpec(), 2));
  DiffOptions options;
  options.compare_timings = false;  // thread counts differ on purpose
  const DiffResult result = DiffReports(a, b, options);
  EXPECT_FALSE(result.HasRegression());
  EXPECT_EQ(result.cells_compared, 2u);   // the two rc cells
  EXPECT_EQ(result.methods_compared, 4u); // x {rw, proposed}
  EXPECT_DOUBLE_EQ(result.max_l1_drift, 0.0);
}

TEST(DiffReportsTest, TrackedRunsOfTheSameScenarioDiffClean) {
  ScenarioSpec spec = TinyDiffSpec();
  spec.track_properties = true;
  const Json a = ScenarioReportToJson(RunScenario(spec, 1));
  const Json b = ScenarioReportToJson(RunScenario(spec, 2));
  DiffOptions options;
  options.compare_timings = false;  // thread counts differ on purpose
  const DiffResult tracked = DiffReports(a, b, options);
  EXPECT_FALSE(tracked.HasRegression());
  EXPECT_DOUBLE_EQ(tracked.max_l1_drift, 0.0);
  // Against an untracked baseline of the same spec the added curve is
  // only a note: recorded reports keep passing after tracking lands.
  const Json untracked =
      ScenarioReportToJson(RunScenario(TinyDiffSpec(), 1));
  EXPECT_FALSE(DiffReports(untracked, a, options).HasRegression());
}

TEST(DiffReportsTest, InjectedDriftInARealReportIsCaught) {
  const Json a = ScenarioReportToJson(RunScenario(TinyDiffSpec(), 1));
  Json b = a;
  Json& average = *b.Find("cells")
                       ->Items()[1]
                       .Find("methods")
                       ->Items()[0]
                       .Find("distances")
                       ->Find("average");
  average = Json::Number(average.AsNumber() + 0.01);
  DiffOptions options;
  options.compare_timings = false;
  const DiffResult result = DiffReports(a, b, options);
  EXPECT_TRUE(result.HasRegression());
}

// ---------------------------------------------------------------------------
// `sgr table` rendering
// ---------------------------------------------------------------------------

constexpr const char* kRewireBlock = R"("rewire": {"final_distance": 0.7},)";

/// The fields of the table line that starts with `label`, split at runs of
/// two or more spaces (TablePrinter's column gap); empty when absent.
std::vector<std::string> TableRow(const std::string& text,
                                  const std::string& label) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(label + "  ", 0) != 0) continue;
    std::vector<std::string> fields;
    const std::regex gap(" {2,}");
    for (std::sregex_token_iterator it(line.begin(), line.end(), gap, -1), end;
         it != end; ++it) {
      if (!it->str().empty()) fields.push_back(*it);
    }
    return fields;
  }
  return {};
}

TEST(ReportTableTest, GridEntryIsTheReportsMeanPlusMinusSd) {
  const Json doc = MakeDoc(0.5, 1.0, 0.5, "",
                           R"({"name": "tables-smoke", "rc": 10})",
                           kRewireBlock);
  std::ostringstream out;
  PrintReportTable(doc, out);
  const std::string text = out.str();
  // The built-in's description (the paper's reference) heads the output.
  EXPECT_NE(text.find(BuiltinScenarioDescription("tables-smoke")),
            std::string::npos);
  const std::vector<std::string> row = TableRow(text, "tiny @ 10%");
  ASSERT_EQ(row.size(), 2u) << text;
  EXPECT_EQ(row[1], TablePrinter::PlusMinus(0.5, 0.1));
  // Block (b): steps, restore s, rewiring s, final D.
  EXPECT_EQ(TableRow(text, "tiny @ 10%  Proposed"),
            (std::vector<std::string>{"tiny @ 10%", "Proposed", "40.0",
                                      "0.5000", "0.2000", "0.700"}));
  // Block (c): one row per method over the report's properties.
  EXPECT_EQ(TableRow(text, "Proposed"),
            (std::vector<std::string>{"Proposed", "0.500", "0.250"}));
}

TEST(ReportTableTest, MethodMissingFromACellPrintsAPlaceholder) {
  Json doc = MakeDoc(0.5, 1.0, 0.5, R"("rc": 10,)", R"({"rc": 10})",
                     kRewireBlock);
  Json& methods = *doc.Find("cells")->Items()[0].Find("methods");
  Json bfs = methods.Items()[0];
  *bfs.Find("method") = Json::String("BFS");
  methods.Push(std::move(bfs));
  doc.Find("cells")->Push(MakeDoc(0.7, 1.0, 0.5, R"("rc": 250,)",
                                  R"({"rc": 10})", kRewireBlock)
                              .Find("cells")
                              ->Items()[0]);
  std::ostringstream out;
  PrintReportTable(doc, out);
  EXPECT_EQ(TableRow(out.str(), "tiny @ 10% rc=250"),
            (std::vector<std::string>{"tiny @ 10% rc=250",
                                      TablePrinter::PlusMinus(0.7, 0.1),
                                      "-"}))
      << out.str();
}

TEST(ReportTableTest, MissingSdThrowsNamingTheMethod) {
  Json doc = MakeDoc(0.5, 1.0, 0.5, "", R"({"rc": 10})", kRewireBlock);
  doc.Find("cells")->Items()[0].Find("methods")->Items()[0].Find(
      "distances")->Remove("sd");
  std::ostringstream out;
  try {
    PrintReportTable(doc, out);
    FAIL() << "a method without distances.sd rendered";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("Proposed"), std::string::npos) << message;
    EXPECT_NE(message.find("'sd'"), std::string::npos) << message;
  }
}

TEST(ReportTableTest, RealReportGridMatchesEveryAggregate) {
  const Json report = ScenarioReportToJson(RunScenario(TinyDiffSpec(), 1));
  std::ostringstream out;
  PrintReportTable(report, out);
  const Json defaults = CellKnobDefaults(report.Find("config"));
  for (const Json& cell : report.Find("cells")->Items()) {
    const std::vector<std::string> row = TableRow(
        out.str(), CellLabel(cell.Find("dataset")->AsString(), cell,
                             defaults));
    const std::vector<Json>& methods = cell.Find("methods")->Items();
    ASSERT_EQ(row.size(), 1 + methods.size()) << out.str();
    for (std::size_t m = 0; m < methods.size(); ++m) {
      const Json& distances = *methods[m].Find("distances");
      EXPECT_EQ(row[1 + m],
                TablePrinter::PlusMinus(distances.Find("average")->AsNumber(),
                                        distances.Find("sd")->AsNumber()));
    }
  }
}

}  // namespace
}  // namespace sgr
