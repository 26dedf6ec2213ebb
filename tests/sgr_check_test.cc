// Golden-fixture tests for the sgr-check determinism lint (util/srccheck).
//
// Each rule gets three fixtures: a violating snippet (asserting the exact
// rule id and position), an allow-annotated snippet (suppressed and
// summarized), and a clean snippet. The fixtures are fed to the checker as
// in-memory strings under paths chosen to exercise the per-rule path
// sanctions. A final test lints the real src/ tree, so the suite fails the
// moment a contract violation lands.

#include "util/srccheck.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sgr {
namespace {

CheckResult CheckOne(const std::string& path, const std::string& content) {
  SourceChecker checker;
  checker.Check(path, content);
  return checker.TakeResult();
}

std::string Describe(const CheckResult& result) {
  std::ostringstream out;
  PrintCheckReport(result, out);
  return out.str();
}

// ---------------------------------------------------------------------------
// nondet-random
// ---------------------------------------------------------------------------

TEST(SgrCheckRandomTest, FlagsRandCallWithPosition) {
  const CheckResult result = CheckOne("src/util/fixture.cc",
                                      "void f() {\n"
                                      "  rand();\n"
                                      "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "nondet-random");
  EXPECT_EQ(result.violations[0].line, 2u);
  EXPECT_EQ(result.violations[0].column, 3u);
  EXPECT_FALSE(result.Clean());
}

TEST(SgrCheckRandomTest, FlagsRandomDeviceAndSrand) {
  const CheckResult result = CheckOne("src/util/fixture.cc",
                                      "void f() {\n"
                                      "  std::random_device rd;\n"
                                      "  srand(7);\n"
                                      "}\n");
  ASSERT_EQ(result.violations.size(), 2u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "nondet-random");
  EXPECT_EQ(result.violations[0].line, 2u);
  EXPECT_EQ(result.violations[1].rule, "nondet-random");
  EXPECT_EQ(result.violations[1].line, 3u);
}

TEST(SgrCheckRandomTest, AllowOnLineAboveSuppressesAndIsSummarized) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f() {\n"
               "  // sgr-check: allow(nondet-random) demo reason\n"
               "  rand();\n"
               "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
  ASSERT_EQ(result.allows.size(), 1u);
  EXPECT_EQ(result.allows[0].rule, "nondet-random");
  EXPECT_EQ(result.allows[0].line, 2u);
  EXPECT_EQ(result.allows[0].reason, "demo reason");
  EXPECT_EQ(result.allows[0].suppressed, 1u);
}

TEST(SgrCheckRandomTest, AllowOnSameLineSuppresses) {
  const CheckResult result = CheckOne(
      "src/util/fixture.cc",
      "void f() {\n"
      "  rand();  // sgr-check: allow(nondet-random) same-line form\n"
      "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
  ASSERT_EQ(result.allows.size(), 1u);
  EXPECT_EQ(result.allows[0].suppressed, 1u);
}

TEST(SgrCheckRandomTest, MemberRandAndOtherNamespacesAreClean) {
  const CheckResult result = CheckOne("src/util/fixture.cc",
                                      "void f(Widget& w) {\n"
                                      "  w.rand();\n"
                                      "  mylib::rand();\n"
                                      "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

// ---------------------------------------------------------------------------
// nondet-clock
// ---------------------------------------------------------------------------

TEST(SgrCheckClockTest, FlagsTimeAndChronoClocksOutsideObs) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f() {\n"
               "  time(nullptr);\n"
               "  auto t = std::chrono::steady_clock::now();\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 2u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "nondet-clock");
  EXPECT_EQ(result.violations[0].line, 2u);
  EXPECT_EQ(result.violations[1].rule, "nondet-clock");
  EXPECT_EQ(result.violations[1].line, 3u);
}

TEST(SgrCheckClockTest, ObsOwnsTheClock) {
  const CheckResult result =
      CheckOne("src/obs/timer.cc",
               "void f() {\n"
               "  auto t = std::chrono::steady_clock::now();\n"
               "  clock();\n"
               "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

// ---------------------------------------------------------------------------
// nondet-env
// ---------------------------------------------------------------------------

TEST(SgrCheckEnvTest, FlagsGetenvOutsideRunnerEntryPoints) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f() { const char* v = getenv(\"SGR_X\"); (void)v; }\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "nondet-env");
}

TEST(SgrCheckEnvTest, RunnerEntryPointsMayReadEnv) {
  // exp/runner.cc is EnvText's home; every other file reads the
  // environment through EnvText, exp/datasets.cc included.
  const std::string content =
      "void f() { const char* v = getenv(\"SGR_X\"); (void)v; }\n";
  EXPECT_TRUE(CheckOne("src/exp/runner.cc", content).Clean());
  EXPECT_FALSE(CheckOne("src/exp/datasets.cc", content).Clean());
  // Homes match at a path-component boundary only.
  EXPECT_FALSE(CheckOne("src/myexp/runner.cc", content).Clean());
}

// ---------------------------------------------------------------------------
// raw-rng
// ---------------------------------------------------------------------------

TEST(SgrCheckRawRngTest, FlagsEngineOutsideSanctionedHomes) {
  const CheckResult result = CheckOne("src/analysis/fixture.cc",
                                      "void f() {\n"
                                      "  std::mt19937 gen(42);\n"
                                      "  (void)gen;\n"
                                      "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "raw-rng");
  EXPECT_EQ(result.violations[0].line, 2u);
}

TEST(SgrCheckRawRngTest, UtilRngAndExpParallelAreSanctioned) {
  const std::string content = "void f() { std::mt19937_64 g(1); (void)g; }\n";
  EXPECT_TRUE(CheckOne("src/util/rng.cc", content).Clean());
  EXPECT_TRUE(CheckOne("src/util/rng.h", content).Clean());
  EXPECT_TRUE(CheckOne("src/exp/parallel.cc", content).Clean());
}

// ---------------------------------------------------------------------------
// global-state
// ---------------------------------------------------------------------------

TEST(SgrCheckGlobalStateTest, FlagsMutableNamespaceScopeVariable) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc", "int counter = 0;\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "global-state");
  EXPECT_EQ(result.violations[0].line, 1u);
}

TEST(SgrCheckGlobalStateTest, FlagsMutableStaticLocal) {
  const CheckResult result = CheckOne("src/util/fixture.cc",
                                      "int f() {\n"
                                      "  static int calls = 0;\n"
                                      "  return ++calls;\n"
                                      "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "global-state");
  EXPECT_EQ(result.violations[0].line, 2u);
}

TEST(SgrCheckGlobalStateTest, ConstGlobalsAndFunctionsAreClean) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "const int kLimit = 8;\n"
               "constexpr double kScale = 0.5;\n"
               "int Twice(int x) { return 0; }\n"
               "int g() {\n"
               "  static const int kTable = 3;\n"
               "  return kTable;\n"
               "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

TEST(SgrCheckGlobalStateTest, ObsRegistriesAreSanctioned) {
  const CheckResult result = CheckOne("src/obs/metrics.cc",
                                      "int f() {\n"
                                      "  static int calls = 0;\n"
                                      "  return ++calls;\n"
                                      "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

// ---------------------------------------------------------------------------
// float-drift
// ---------------------------------------------------------------------------

TEST(SgrCheckFloatTest, FlagsFloatInDoubleOnlyLayers) {
  const std::string content = "void f() { float x = 0; (void)x; }\n";
  for (const char* path :
       {"src/analysis/fixture.cc", "src/estimation/fixture.cc",
        "src/restore/fixture.cc", "src/dk/fixture.cc"}) {
    const CheckResult result = CheckOne(path, content);
    ASSERT_EQ(result.violations.size(), 1u) << path << "\n"
                                            << Describe(result);
    EXPECT_EQ(result.violations[0].rule, "float-drift") << path;
  }
}

TEST(SgrCheckFloatTest, DoubleIsCleanAndOtherLayersMayFloat) {
  EXPECT_TRUE(CheckOne("src/estimation/fixture.cc",
                       "void f() { double x = 0; (void)x; }\n")
                  .Clean());
  EXPECT_TRUE(
      CheckOne("src/util/fixture.cc", "void f() { float x = 0; (void)x; }\n")
          .Clean());
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

TEST(SgrCheckUnorderedTest, FlagsOrderDependentRangeFor) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f(std::vector<int>& out) {\n"
               "  std::unordered_map<int, int> counts;\n"
               "  for (const auto& [k, v] : counts) {\n"
               "    out.push_back(k);\n"
               "  }\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 3u);
  EXPECT_EQ(result.violations[0].column, 3u);
}

TEST(SgrCheckUnorderedTest, FlagsClassicIteratorLoop) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f(std::vector<int>& out) {\n"
               "  std::unordered_set<int> seen;\n"
               "  for (auto it = seen.begin(); it != seen.end(); ++it) {\n"
               "    out.push_back(*it);\n"
               "  }\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
}

TEST(SgrCheckUnorderedTest, AccumulatingBodyIsFlagged) {
  // No loop body is exempt: the rule does not try to prove that a body
  // only accumulates.
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "int f(const std::unordered_map<int, int>& counts) {\n"
               "  int sum = 0;\n"
               "  int top = 0;\n"
               "  for (const auto& [k, v] : counts) {\n"
               "    sum += v;\n"
               "    top = std::max(top, v);\n"
               "    if (v == 0) continue;\n"
               "  }\n"
               "  return sum + top;\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 4u);
}

TEST(SgrCheckUnorderedTest, UniformPredicateReturnIsFlagged) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "bool f(const std::unordered_map<int, int>& counts) {\n"
               "  for (const auto& [k, v] : counts) {\n"
               "    if (v < 0) return true;\n"
               "  }\n"
               "  return false;\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 2u);
}

TEST(SgrCheckUnorderedTest, FlagsFloatingPointSumInHashOrder) {
  // Floating-point addition is not associative, so the sum's low bits
  // depend on the map's iteration order.
  const CheckResult result =
      CheckOne("src/estimation/fixture.cc",
               "double f(const std::unordered_map<int, double>& weights) {\n"
               "  double total = 0.0;\n"
               "  for (const auto& [k, v] : weights) {\n"
               "    total += v;\n"
               "  }\n"
               "  return total;\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 3u);
}

TEST(SgrCheckUnorderedTest, FlagsAlgorithmOverUnorderedBegin) {
  // begin()/cbegin() handed to an algorithm walks the container in hash
  // order; a find()/end() lookup does not walk it.
  const CheckResult result = CheckOne(
      "src/estimation/fixture.cc",
      "double f(const std::unordered_map<int, double>& m,\n"
      "         std::vector<std::pair<int, double>>& out) {\n"
      "  const double s = std::accumulate(m.begin(), m.end(), 0.0, Add);\n"
      "  if (std::all_of(m.begin(), m.end(), Positive)) return s;\n"
      "  std::copy(m.cbegin(), m.cend(), std::back_inserter(out));\n"
      "  return m.find(3) == m.end() ? 0.0 : s;\n"
      "}\n");
  ASSERT_EQ(result.violations.size(), 3u) << Describe(result);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.violations[i].rule, "unordered-iter");
    EXPECT_EQ(result.violations[i].line, i + 3);
  }
}

TEST(SgrCheckUnorderedTest, ReturnAfterAccumulationIsFlagged) {
  // An early return after partial accumulation exposes iteration order.
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "bool f(const std::unordered_map<int, int>& counts) {\n"
               "  int sum = 0;\n"
               "  for (const auto& [k, v] : counts) {\n"
               "    sum += v;\n"
               "    if (sum > 10) return true;\n"
               "  }\n"
               "  return false;\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
}

TEST(SgrCheckUnorderedTest, SortedKeysRangeIsSanctioned) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f(const std::unordered_map<int, int>& counts,\n"
               "       std::vector<int>& out) {\n"
               "  for (const int k : SortedKeys(counts)) {\n"
               "    out.push_back(k);\n"
               "  }\n"
               "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

TEST(SgrCheckUnorderedTest, AccessorReturningUnorderedIsTracked) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "struct Est {\n"
               "  const std::unordered_map<int, double>& values() const;\n"
               "};\n"
               "void f(const Est& e, std::vector<int>& out) {\n"
               "  for (const auto& [k, v] : e.values()) {\n"
               "    out.push_back(k);\n"
               "  }\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 5u);
}

TEST(SgrCheckUnorderedTest, AccessorNameDoesNotTaintPlainVariables) {
  // `values` is registered as an accessor (declarator followed by `(`):
  // an unrelated vector of the same name must not trip the rule.
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "struct Est {\n"
               "  const std::unordered_map<int, double>& values() const;\n"
               "};\n"
               "void f(const std::vector<int>& values,\n"
               "       std::vector<int>& out) {\n"
               "  for (const int v : values) {\n"
               "    out.push_back(v);\n"
               "  }\n"
               "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

TEST(SgrCheckUnorderedTest, DirectInitialisedLocalIsTracked) {
  // Inside a function body `NAME(args)` direct-initialises a variable; it
  // is not an accessor declaration, so the walk below is flagged.
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "double f() {\n"
               "  std::unordered_map<int, double> m(16);\n"
               "  double total = 0.0;\n"
               "  for (const auto& [k, v] : m) total += v;\n"
               "  return total;\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 4u);
}

TEST(SgrCheckUnorderedTest, AliasOfUnorderedIsTracked) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "using NodeMap = std::unordered_map<int, int>;\n"
               "void f(const NodeMap& m, std::vector<int>& out) {\n"
               "  for (const auto& [k, v] : m) {\n"
               "    out.push_back(k);\n"
               "  }\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
}

TEST(SgrCheckUnorderedTest, ContainerOfUnorderedIsTrackedOnSubscript) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f(const std::vector<std::unordered_map<int, int> >& adj,\n"
               "       std::vector<int>& out) {\n"
               "  for (const auto& [k, v] : adj[0]) {\n"
               "    out.push_back(k);\n"
               "  }\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
}

TEST(SgrCheckUnorderedTest, LoopVariableOverContainerOfUnorderedIsTracked) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f(const std::vector<std::unordered_map<int, int>>& ms,\n"
               "       std::map<int, int>& out) {\n"
               "  for (const auto& local : ms) {\n"
               "    for (const auto& [k, v] : local) out[k] += v;\n"
               "  }\n"
               "}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].line, 4u);
}

TEST(SgrCheckUnorderedTest, LocalsAndMembersDoNotTaintOtherScopes) {
  // An unordered local is seen only in its own block, and an unordered
  // member bare only in its own files: same-named vectors elsewhere walk
  // freely, while member access still resolves across files.
  SourceChecker checker;
  checker.Preload("src/sampling/list.h",
                  "struct List {\n"
                  "  std::unordered_map<int, int> neighbors;\n"
                  "};\n");
  checker.Check("src/estimation/user.cc",
                "void f() {\n"
                "  std::unordered_set<int> seen;\n"
                "}\n"
                "void g(std::vector<int>& seen, std::vector<int>& neighbors,\n"
                "       const List& list) {\n"
                "  std::sort(seen.begin(), seen.end());\n"
                "  std::sort(neighbors.begin(), neighbors.end());\n"
                "  for (const auto& [k, v] : list.neighbors) {}\n"
                "}\n");
  const CheckResult result = checker.TakeResult();
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].line, 8u);
}

TEST(SgrCheckUnorderedTest, DeclarationsResolveAcrossFiles) {
  // The accessor is declared in a header preloaded first; the loop lives
  // in another translation unit.
  SourceChecker checker;
  checker.Preload("src/estimation/est.h",
                  "struct Est {\n"
                  "  const std::unordered_map<int, double>& values() const;\n"
                  "};\n");
  checker.Check("src/restore/user.cc",
                "void f(const Est& e, std::vector<int>& out) {\n"
                "  for (const auto& [k, v] : e.values()) {\n"
                "    out.push_back(k);\n"
                "  }\n"
                "}\n");
  const CheckResult result = checker.TakeResult();
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unordered-iter");
  EXPECT_EQ(result.violations[0].file, "src/restore/user.cc");
}

TEST(SgrCheckUnorderedTest, OrderedContainersAreClean) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f(const std::map<int, int>& counts,\n"
               "       std::vector<int>& out) {\n"
               "  for (const auto& [k, v] : counts) {\n"
               "    out.push_back(k);\n"
               "  }\n"
               "}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

// ---------------------------------------------------------------------------
// Escape hatch bookkeeping: unused allows, wrong-rule allows
// ---------------------------------------------------------------------------

TEST(SgrCheckAllowTest, UnusedAllowIsItselfAViolation) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "// sgr-check: allow(nondet-random) nothing here\n"
               "void f() {}\n");
  ASSERT_EQ(result.violations.size(), 1u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unused-allow");
  EXPECT_EQ(result.violations[0].line, 1u);
  ASSERT_EQ(result.allows.size(), 1u);
  EXPECT_EQ(result.allows[0].suppressed, 0u);
}

TEST(SgrCheckAllowTest, WrongRuleAllowDoesNotSuppress) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f() {\n"
               "  // sgr-check: allow(nondet-clock) wrong rule id\n"
               "  rand();\n"
               "}\n");
  // Both the original finding and the stale annotation are reported.
  ASSERT_EQ(result.violations.size(), 2u) << Describe(result);
  EXPECT_EQ(result.violations[0].rule, "unused-allow");
  EXPECT_EQ(result.violations[0].line, 2u);
  EXPECT_EQ(result.violations[1].rule, "nondet-random");
  EXPECT_EQ(result.violations[1].line, 3u);
}

TEST(SgrCheckAllowTest, ProseMentioningTheSyntaxIsNotAnAnnotation) {
  // The marker must be the first thing in the comment; doc prose that
  // merely quotes the syntax (like srccheck.h itself) is ignored.
  const CheckResult result = CheckOne(
      "src/util/fixture.cc",
      "// Escape hatch: write // sgr-check: allow(<rule>) <reason> above.\n"
      "void f() {}\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
  EXPECT_TRUE(result.allows.empty());
}

// ---------------------------------------------------------------------------
// Lexer immunity: strings, comments, preprocessor
// ---------------------------------------------------------------------------

TEST(SgrCheckLexerTest, StringsCommentsAndPreprocessorProduceNoFindings) {
  const CheckResult result = CheckOne(
      "src/util/fixture.cc",
      "#include <ctime>  // time() lives here\n"
      "// rand() in a comment\n"
      "/* srand(1); getenv(\"X\"); std::mt19937 g; */\n"
      "const char* kMsg = \"rand() time(nullptr) float\";\n"
      "const char* kRaw = R\"(std::random_device rd; clock();)\";\n");
  EXPECT_TRUE(result.Clean()) << Describe(result);
}

// ---------------------------------------------------------------------------
// Report formatting
// ---------------------------------------------------------------------------

TEST(SgrCheckReportTest, PrintsDiagnosticsAllowsAndSummary) {
  const CheckResult result =
      CheckOne("src/util/fixture.cc",
               "void f() {\n"
               "  rand();\n"
               "  // sgr-check: allow(nondet-clock) metered by hand\n"
               "  clock();\n"
               "}\n");
  const std::string report = Describe(result);
  EXPECT_NE(report.find("src/util/fixture.cc:2:3: nondet-random:"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("sanctioned exceptions"), std::string::npos);
  EXPECT_NE(report.find("allow(nondet-clock): metered by hand"),
            std::string::npos);
  EXPECT_NE(report.find("sgr-check: 1 violation(s), "
                        "1 sanctioned exception(s)"),
            std::string::npos)
      << report;
}

// ---------------------------------------------------------------------------
// The self-test: the real source tree is clean. This is the same gate CI's
// static-analysis job enforces.
// ---------------------------------------------------------------------------

TEST(SgrCheckTreeTest, RealSourceTreeIsClean) {
  const CheckResult result = CheckSourceTree({SGR_SOURCE_DIR "/src"});
  EXPECT_TRUE(result.Clean()) << Describe(result);
  // The sweep left a deliberate catalogue of sanctioned exceptions; every
  // one of them must still be suppressing something (no rot).
  for (const CheckAllow& allow : result.allows) {
    EXPECT_GT(allow.suppressed, 0u)
        << allow.file << ":" << allow.line << " allow(" << allow.rule << ")";
  }
}

}  // namespace
}  // namespace sgr
