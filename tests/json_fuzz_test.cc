// Fuzz-style robustness suite for the JSON layer (util/json.h) and the
// sgr-report/1 documents built on it: seeded-random document generation
// (deterministic, so failures reproduce), parse -> serialize -> re-parse
// byte-equality, and regression tests for the parser's rejection of
// truncated / deep-nested / duplicate-key inputs with line:column
// assertions, plus the scenario knob table fed fuzzed values.

#include "util/json.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/spec.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// Deterministic pseudo-random document generator. Depth-bounded,
/// reachable kinds cover the full value space the report writer emits:
/// null, bools, finite and non-finite numbers, strings with escapes and
/// multi-byte UTF-8, nested arrays and objects (unique keys — the parser
/// rejects duplicates by design).
class DocumentFuzzer {
 public:
  explicit DocumentFuzzer(std::uint64_t seed) : rng_(seed) {}

  Json Value(int depth) {
    // Leaves only at the depth limit; containers get rarer deeper down.
    const std::size_t kind =
        rng_.NextIndex(depth >= 4 ? 4 : 6);
    switch (kind) {
      case 0: return Json::Null();
      case 1: return Json::Bool(rng_.NextIndex(2) == 0);
      case 2: return Json::Number(Number());
      case 3: return Json::String(String());
      case 4: {
        Json array = Json::Array();
        const std::size_t size = rng_.NextIndex(4);
        for (std::size_t i = 0; i < size; ++i) {
          array.Push(Value(depth + 1));
        }
        return array;
      }
      default: {
        Json object = Json::Object();
        const std::size_t size = rng_.NextIndex(4);
        for (std::size_t i = 0; i < size; ++i) {
          object.Set(String() + "#" + std::to_string(i), Value(depth + 1));
        }
        return object;
      }
    }
  }

  Json Document() {
    // Roots are always containers, so every strict prefix of the dump is
    // malformed — which is what the truncation test relies on.
    Json root = Json::Object();
    const std::size_t size = 1 + rng_.NextIndex(4);
    for (std::size_t i = 0; i < size; ++i) {
      root.Set("k" + std::to_string(i), Value(1));
    }
    return root;
  }

 private:
  double Number() {
    switch (rng_.NextIndex(8)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::infinity();
      case 3: return -std::numeric_limits<double>::infinity();
      case 4: return std::nan("");
      case 5: return static_cast<double>(rng_.NextIndex(1 << 30)) *
                     (rng_.NextIndex(2) == 0 ? 1.0 : -1.0);
      case 6: return 5e-324 * static_cast<double>(1 + rng_.NextIndex(100));
      default:
        // A full-entropy finite double via mantissa/exponent dice.
        return std::ldexp(static_cast<double>(rng_.NextIndex(1ULL << 53)),
                          static_cast<int>(rng_.NextIndex(60)) - 30) *
               (rng_.NextIndex(2) == 0 ? 1.0 : -1.0);
    }
  }

  std::string String() {
    static const char* kPieces[] = {"a",  "\"", "\\", "\n", "\t",
                                    "é",  "€",  "😀", " ",  "\x01",
                                    "nested", "/"};
    std::string out;
    const std::size_t size = rng_.NextIndex(6);
    for (std::size_t i = 0; i < size; ++i) {
      out += kPieces[rng_.NextIndex(sizeof(kPieces) / sizeof(*kPieces))];
    }
    return out;
  }

  Rng rng_;
};

TEST(JsonFuzzTest, RandomDocumentsRoundTripByteIdentically) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    DocumentFuzzer fuzzer(seed);
    const Json document = fuzzer.Document();
    for (const int indent : {0, 2, 4}) {
      const std::string dumped = document.Dump(indent);
      Json reparsed;
      try {
        reparsed = Json::Parse(dumped);
      } catch (const JsonError& e) {
        FAIL() << "seed " << seed << " indent " << indent
               << ": writer emitted unparseable bytes: " << e.what()
               << "\n" << dumped;
      }
      // parse -> serialize -> re-parse: byte equality both hops. (NaN
      // != NaN under operator==, so the byte-level check is the one
      // that covers every generated document.)
      EXPECT_EQ(reparsed.Dump(indent), dumped)
          << "seed " << seed << " indent " << indent;
      EXPECT_EQ(Json::Parse(reparsed.Dump(indent)).Dump(indent), dumped)
          << "seed " << seed << " indent " << indent;
    }
  }
}

TEST(JsonFuzzTest, TruncatedDocumentsAlwaysRejectedNeverCrash) {
  // Every strict prefix of a container-rooted document is malformed: the
  // parser must throw JsonError (with a location) rather than return a
  // value or crash. Dense sweep on a small document, sampled sweep on
  // larger fuzzed ones.
  const std::string small =
      R"({"a": [1, true, "x\n"], "b": {"c": NaN}})";
  for (std::size_t cut = 0; cut < small.size(); ++cut) {
    try {
      Json::Parse(small.substr(0, cut));
      FAIL() << "prefix of length " << cut << " parsed";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("JSON parse error at "),
                std::string::npos)
          << e.what();
    }
  }
  for (std::uint64_t seed = 300; seed < 320; ++seed) {
    DocumentFuzzer fuzzer(seed);
    const std::string dumped = fuzzer.Document().Dump(2);
    for (std::size_t cut = 0; cut < dumped.size();
         cut += 1 + cut / 7) {  // sampled cuts, denser near the front
      EXPECT_THROW(Json::Parse(dumped.substr(0, cut)), JsonError)
          << "seed " << seed << " cut " << cut;
    }
  }
}

TEST(JsonFuzzTest, DeepNestingRejectedWithLocation) {
  // The depth guard fires while *entering* a value: the root sits at
  // depth 0, so 257 brackets still parse and the 258th is the first one
  // rejected. The error must point at the line and column of that
  // bracket — line 1, column 258.
  std::string ok(257, '[');
  ok += std::string(257, ']');
  EXPECT_NO_THROW(Json::Parse(ok));

  std::string too_deep(258, '[');
  too_deep += std::string(258, ']');
  try {
    Json::Parse(too_deep);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than 256 levels"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("at 1:258"), std::string::npos) << what;
  }
}

TEST(JsonFuzzTest, DuplicateKeysRejectedWithLocation) {
  // The duplicate sits on line 3; the parser names the key and the
  // line:column right after the offending key string.
  const std::string text = "{\n  \"a\": 1,\n  \"a\": 2\n}";
  try {
    Json::Parse(text);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate object key 'a'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("at 3:"), std::string::npos) << what;
  }
  // Same check in compact form, nested one level down.
  try {
    Json::Parse(R"({"outer": {"k": 1, "k": 2}})");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key 'k'"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonFuzzTest, FuzzedReportDocumentsRoundTripThroughTheReportShape) {
  // sgr-report/1-shaped documents with fuzzed numeric payloads: the
  // shape the scenario engine writes and `sgr diff` reads must round
  // trip byte-identically, non-finite distances included.
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    DocumentFuzzer fuzzer(seed);
    Json report = Json::Object();
    report.Set("schema", Json::String("sgr-report/1"));
    report.Set("tool", Json::String("fuzz"));
    report.Set("config", fuzzer.Document());
    Json cells = Json::Array();
    for (int c = 0; c < 3; ++c) {
      Json cell = Json::Object();
      cell.Set("dataset", Json::String("d" + std::to_string(c)));
      cell.Set("query_fraction", Json::Number(0.1 * (c + 1)));
      cell.Set("metrics", fuzzer.Value(2));
      cells.Push(std::move(cell));
    }
    report.Set("cells", std::move(cells));
    const std::string dumped = report.Dump(2);
    EXPECT_EQ(Json::Parse(dumped).Dump(2), dumped) << "seed " << seed;
  }
}


TEST(JsonFuzzTest, FuzzedScenarioKnobsParseOrThrowScenarioError) {
  // Every row of the scenario knob table, and members of its object-valued
  // entries, fed random values: FromJson either accepts the document, and
  // its echo then round-trips, or throws ScenarioError. No other
  // exception, and no crash.
  const std::vector<std::pair<std::string, std::string>> members = {
      {"estimator", "joint_mode"}, {"estimator", "collision_fraction"},
      {"noise", "failure"},        {"noise", "api_budget"},
      {"datasets", "nodes"},       {"datasets", "triad_p"},
      {"datasets", "model"},       {"datasets", "seed"}};
  std::size_t accepted = 0;
  for (std::uint64_t seed = 700; seed < 740; ++seed) {
    DocumentFuzzer fuzzer(seed);
    std::vector<Json> documents;
    for (const std::string& key : ScenarioSpecKeys()) {
      Json doc = Json::Parse(R"({"datasets": ["anybeat"]})");
      doc.Set(key, fuzzer.Value(2));
      documents.push_back(std::move(doc));
    }
    for (const auto& [key, member] : members) {
      Json entry = Json::Object();
      entry.Set(member, fuzzer.Value(2));
      Json doc = Json::Parse(R"({"datasets": ["anybeat"]})");
      if (key == "datasets") {
        Json datasets = Json::Array();
        datasets.Push(std::move(entry));
        doc.Set(key, std::move(datasets));
      } else {
        doc.Set(key, std::move(entry));
      }
      documents.push_back(std::move(doc));
    }
    for (const Json& doc : documents) {
      try {
        const Json echo = ScenarioSpec::FromJson(doc).ToJson();
        EXPECT_EQ(ScenarioSpec::FromJson(echo).ToJson(), echo) << doc.Dump(0);
        ++accepted;
      } catch (const ScenarioError&) {
      }
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace sgr
