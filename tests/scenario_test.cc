#include "scenario/engine.h"
#include "scenario/report.h"
#include "scenario/spec.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/parallel.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "restore/rewirer.h"

namespace sgr {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing and validation
// ---------------------------------------------------------------------------

TEST(ScenarioSpecTest, DefaultsMatchExperimentConfig) {
  const ScenarioSpec spec =
      ScenarioSpec::FromJson(Json::Parse(R"({"datasets": ["anybeat"]})"));
  const ExperimentConfig defaults;
  const ExperimentConfig from_spec = spec.ToExperimentConfig(0.1);
  EXPECT_EQ(from_spec.query_fraction, defaults.query_fraction);
  EXPECT_EQ(from_spec.methods, defaults.methods);
  EXPECT_EQ(from_spec.snowball_k, defaults.snowball_k);
  EXPECT_DOUBLE_EQ(from_spec.forest_fire_pf, defaults.forest_fire_pf);
  EXPECT_DOUBLE_EQ(from_spec.restoration.rewire.rewiring_coefficient,
                   defaults.restoration.rewire.rewiring_coefficient);
  EXPECT_EQ(from_spec.restoration.simplify_output,
            defaults.restoration.simplify_output);
  EXPECT_EQ(from_spec.property_options.max_path_sources,
            defaults.property_options.max_path_sources);
  EXPECT_EQ(from_spec.property_options.threads,
            defaults.property_options.threads);
}

TEST(ScenarioSpecTest, ParsesFullDocument) {
  const ScenarioSpec spec = ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "mine",
    "datasets": ["anybeat",
                 {"name": "tiny", "model": "powerlaw", "nodes": 200,
                  "edges_per_node": 3, "triad_p": 0.3, "seed": 7}],
    "fractions": [0.05, 0.1],
    "methods": ["rw", "proposed"],
    "trials": 4,
    "threads": 2,
    "seed_base": 99,
    "walk": ["simple", "non-backtracking"],
    "crawler": "rw",
    "estimator": [{"joint_mode": "hybrid"},
                  {"joint_mode": "te", "collision_fraction": 0.05}],
    "rc": [25, 50],
    "protect_subgraph": [true, false],
    "frontier_walkers": 12,
    "rewire_batch": 0,
    "rewire_threads": 1,
    "path_sources": 30,
    "snowball_k": 10,
    "forest_fire_pf": 0.5,
    "simplify_output": true,
    "dataset_scale": 0.5,
    "track_properties": true,
    "stop_epsilon": 0.25
  })"));
  EXPECT_EQ(spec.name, "mine");
  ASSERT_EQ(spec.datasets.size(), 2u);
  EXPECT_EQ(spec.datasets[0].name, "anybeat");
  EXPECT_FALSE(spec.datasets[0].generator.has_value());
  EXPECT_EQ(spec.datasets[1].name, "tiny");
  ASSERT_TRUE(spec.datasets[1].generator.has_value());
  EXPECT_EQ(spec.datasets[1].generator->nodes, 200u);
  EXPECT_EQ(spec.datasets[1].generator->seed, 7u);
  EXPECT_EQ(spec.fractions, (std::vector<double>{0.05, 0.1}));
  EXPECT_EQ(spec.methods,
            (std::vector<MethodKind>{MethodKind::kRandomWalk,
                                     MethodKind::kProposed}));
  EXPECT_EQ(spec.trials, 4u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.seed_base, 99u);
  EXPECT_EQ(spec.walks, (std::vector<WalkKind>{
                            WalkKind::kSimple, WalkKind::kNonBacktracking}));
  EXPECT_EQ(spec.crawlers, (std::vector<CrawlerKind>{CrawlerKind::kRw}));
  ASSERT_EQ(spec.estimators.size(), 2u);
  EXPECT_EQ(spec.estimators[0].joint_mode, JointEstimatorMode::kHybrid);
  EXPECT_DOUBLE_EQ(spec.estimators[0].collision_fraction, 0.025);
  EXPECT_EQ(spec.estimators[1].joint_mode,
            JointEstimatorMode::kTraversedEdgesOnly);
  EXPECT_DOUBLE_EQ(spec.estimators[1].collision_fraction, 0.05);
  EXPECT_EQ(spec.rcs, (std::vector<double>{25.0, 50.0}));
  EXPECT_EQ(spec.protects, (std::vector<bool>{true, false}));
  EXPECT_EQ(spec.frontier_walkers, (std::vector<std::size_t>{12}));
  EXPECT_EQ(spec.rewire_batches, (std::vector<std::size_t>{0}));
  EXPECT_EQ(spec.rewire_threads, 1u);
  const ExperimentConfig config = spec.ToExperimentConfig(0.1);
  EXPECT_EQ(config.walk, WalkKind::kSimple);       // first axis value
  EXPECT_EQ(config.crawler, CrawlerKind::kRw);
  EXPECT_EQ(config.frontier_walkers, 12u);
  EXPECT_DOUBLE_EQ(config.restoration.rewire.rewiring_coefficient, 25.0);
  EXPECT_TRUE(config.restoration.protect_subgraph);
  EXPECT_EQ(spec.path_sources, 30u);
  EXPECT_EQ(spec.snowball_k, 10u);
  EXPECT_DOUBLE_EQ(spec.forest_fire_pf, 0.5);
  EXPECT_TRUE(spec.simplify_output);
  EXPECT_DOUBLE_EQ(spec.dataset_scale, 0.5);
  EXPECT_TRUE(spec.track_properties);
  EXPECT_DOUBLE_EQ(spec.stop_epsilon, 0.25);
  EXPECT_TRUE(config.restoration.rewire.track_properties);
  EXPECT_DOUBLE_EQ(config.restoration.rewire.stop_epsilon, 0.25);
  // 2 fractions x 2 walks x 2 estimators x 2 rcs x 2 protects
  // (track_properties / stop_epsilon are scalars, never axes).
  EXPECT_EQ(spec.ExpandKnobs().size(), 32u);
}

TEST(ScenarioSpecTest, AxesAcceptScalarAndArrayForms) {
  const ScenarioSpec scalar = ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"],
    "walk": "non-backtracking",
    "crawler": "rw",
    "estimator": {"joint_mode": "ie"},
    "rc": 75,
    "protect_subgraph": false,
    "methods": ["proposed"]
  })"));
  EXPECT_EQ(scalar.walks,
            (std::vector<WalkKind>{WalkKind::kNonBacktracking}));
  ASSERT_EQ(scalar.estimators.size(), 1u);
  EXPECT_EQ(scalar.estimators[0].joint_mode,
            JointEstimatorMode::kInducedEdgesOnly);
  EXPECT_EQ(scalar.rcs, (std::vector<double>{75.0}));
  EXPECT_EQ(scalar.protects, (std::vector<bool>{false}));
  // The NBRW walk axis derives the estimator normalizer in the config.
  EXPECT_EQ(scalar.ToExperimentConfig(0.1).restoration.estimator.walk_type,
            WalkType::kNonBacktracking);

  const ScenarioSpec array = ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"],
    "crawler": ["rw", "frontier", "mhrw"],
    "methods": ["rw", "gjoka", "proposed"]
  })"));
  EXPECT_EQ(array.crawlers,
            (std::vector<CrawlerKind>{CrawlerKind::kRw,
                                      CrawlerKind::kFrontier,
                                      CrawlerKind::kMhrw}));
  EXPECT_EQ(array.ExpandKnobs().size(), 3u);
}

TEST(ScenarioSpecTest, RewireBatchAndFrontierWalkersAxes) {
  // Scalar form (the historical document shape) still parses to a
  // single-value axis; the retired rewire_batch axis keeps its scalar
  // form at its one legal value...
  const ScenarioSpec scalar = ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"],
    "rc": 128,
    "rewire_batch": 0,
    "frontier_walkers": 7,
    "crawler": "frontier",
    "methods": ["rw"]
  })"));
  EXPECT_EQ(scalar.rcs, (std::vector<double>{128.0}));
  EXPECT_EQ(scalar.rewire_batches, (std::vector<std::size_t>{0}));
  EXPECT_EQ(scalar.frontier_walkers, (std::vector<std::size_t>{7}));
  EXPECT_EQ(scalar.ExpandKnobs().size(), 1u);

  // ...and the array form sweeps. Expansion order: rc-major, then
  // frontier_walkers innermost.
  const ScenarioSpec array = ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"],
    "rc": [25, 64],
    "frontier_walkers": [2, 10, 50],
    "crawler": "frontier",
    "methods": ["rw"]
  })"));
  EXPECT_EQ(array.rcs, (std::vector<double>{25.0, 64.0}));
  EXPECT_EQ(array.frontier_walkers,
            (std::vector<std::size_t>{2, 10, 50}));
  const std::vector<CellKnobs> knobs = array.ExpandKnobs();
  ASSERT_EQ(knobs.size(), 6u);
  EXPECT_EQ(knobs[0].rc, 25.0);
  EXPECT_EQ(knobs[0].frontier_walkers, 2u);
  EXPECT_EQ(knobs[1].rc, 25.0);
  EXPECT_EQ(knobs[1].frontier_walkers, 10u);
  EXPECT_EQ(knobs[3].rc, 64.0);
  EXPECT_EQ(knobs[3].frontier_walkers, 2u);
  EXPECT_EQ(knobs[3].rewire_batch, 0u);

  // The axis values reach the per-cell config.
  ExperimentConfig config = array.ToExperimentConfig(knobs[3]);
  EXPECT_DOUBLE_EQ(config.restoration.rewire.rewiring_coefficient, 64.0);
  EXPECT_EQ(config.frontier_walkers, 2u);

  // Canonical round trip: scalar stays scalar, array stays array,
  // byte-for-byte through show -> parse -> show.
  for (const ScenarioSpec* spec : {&scalar, &array}) {
    const std::string shown = spec->ToJson().Dump(2);
    EXPECT_EQ(shown,
              ScenarioSpec::FromJson(Json::Parse(shown)).ToJson().Dump(2));
  }
}

TEST(ScenarioSpecTest, ParallelAssemblyAndThreadKnobsParse) {
  const ScenarioSpec spec = ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"],
    "parallel_assembly": false,
    "assembly_threads": 1,
    "estimator_threads": 1
  })"));
  EXPECT_FALSE(spec.parallel_assembly);
  EXPECT_EQ(spec.assembly_threads, 1u);
  EXPECT_EQ(spec.estimator_threads, 1u);
  const std::string shown = spec.ToJson().Dump(2);
  EXPECT_EQ(shown,
            ScenarioSpec::FromJson(Json::Parse(shown)).ToJson().Dump(2));

  // Trials run single-threaded, so the retired intra-trial worker counts
  // accept only 1, and a document asking for more fails naming the key.
  // Likewise the retired engine selectors accept only 0 / false.
  for (const auto& [key, text] :
       {std::pair<std::string, const char*>{
            "rewire_threads",
            R"({"datasets": ["anybeat"], "rewire_threads": 3})"},
        {"assembly_threads",
         R"({"datasets": ["anybeat"], "assembly_threads": 4})"},
        {"estimator_threads",
         R"({"datasets": ["anybeat"], "estimator_threads": 3})"},
        {"rewire_batch", R"({"datasets": ["anybeat"], "rewire_batch": 64})"},
        {"rewire_batch",
         R"({"datasets": ["anybeat"], "rewire_batch": [0, 64]})"},
        {"parallel_assembly",
         R"({"datasets": ["anybeat"], "parallel_assembly": true})"}}) {
    try {
      ScenarioSpec::FromJson(Json::Parse(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioSpecTest, CrossAxisRulesEnforced) {
  // A non-walk crawler cannot feed the generative methods...
  EXPECT_THROW(ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"], "crawler": "bfs"
  })")),
               ScenarioError);
  EXPECT_THROW(ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"], "crawler": ["rw", "ff"],
    "methods": ["rw", "proposed"]
  })")),
               ScenarioError);
  // ...but is fine for the subgraph-sampling methods.
  const ScenarioSpec subgraph_only = ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"], "crawler": ["bfs", "snowball", "ff"],
    "methods": ["rw"]
  })"));
  EXPECT_EQ(subgraph_only.crawlers.size(), 3u);
  // A non-simple walk only applies to the rw crawler.
  EXPECT_THROW(ScenarioSpec::FromJson(Json::Parse(R"({
    "datasets": ["anybeat"], "walk": "non-backtracking",
    "crawler": "frontier", "methods": ["rw"]
  })")),
               ScenarioError);
}

TEST(ScenarioSpecTest, RoundTripsThroughJson) {
  const ScenarioSpec spec = BuiltinScenario("fig3-sweep");
  const ScenarioSpec reparsed = ScenarioSpec::FromJson(spec.ToJson());
  EXPECT_EQ(spec.ToJson(), reparsed.ToJson());
}

TEST(ScenarioSpecTest, EveryBuiltinRoundTripsToAnEqualSpec) {
  // `sgr scenarios show <name>` prints ToJson().Dump(2); a user must be
  // able to feed that document straight back to `sgr run`. Lock the full
  // cycle for every built-in (including the multi-axis ablation specs):
  // parse(show output) -> serialize -> re-parse -> byte-equal documents,
  // and the axis fields survive intact.
  for (const std::string& name : BuiltinScenarioNames()) {
    const ScenarioSpec spec = BuiltinScenario(name);
    EXPECT_NO_THROW(spec.Validate()) << name;
    const std::string shown = spec.ToJson().Dump(2);
    const ScenarioSpec reparsed = ScenarioSpec::FromJson(Json::Parse(shown));
    EXPECT_EQ(shown, reparsed.ToJson().Dump(2)) << name;
    EXPECT_EQ(spec.walks, reparsed.walks) << name;
    EXPECT_EQ(spec.crawlers, reparsed.crawlers) << name;
    EXPECT_EQ(spec.rcs, reparsed.rcs) << name;
    EXPECT_EQ(spec.protects, reparsed.protects) << name;
    EXPECT_EQ(spec.estimators.size(), reparsed.estimators.size()) << name;
    for (std::size_t i = 0; i < spec.estimators.size(); ++i) {
      EXPECT_TRUE(spec.estimators[i] == reparsed.estimators[i]) << name;
    }
  }
}

TEST(ScenarioSpecTest, AblationBuiltinsSweepTheirAxes) {
  EXPECT_EQ(BuiltinScenario("ablation-walk").walks,
            (std::vector<WalkKind>{WalkKind::kSimple,
                                   WalkKind::kNonBacktracking}));
  EXPECT_EQ(BuiltinScenario("ablation-rc").rcs,
            (std::vector<double>{0.0, 10.0, 50.0, 100.0, 250.0, 500.0}));
  const ScenarioSpec jdm = BuiltinScenario("ablation-jdm");
  ASSERT_EQ(jdm.estimators.size(), 3u);
  EXPECT_EQ(jdm.estimators[0].joint_mode, JointEstimatorMode::kHybrid);
  EXPECT_EQ(jdm.estimators[1].joint_mode,
            JointEstimatorMode::kInducedEdgesOnly);
  EXPECT_EQ(jdm.estimators[2].joint_mode,
            JointEstimatorMode::kTraversedEdgesOnly);
  EXPECT_EQ(BuiltinScenario("ablation-rewire").protects,
            (std::vector<bool>{true, false}));
  const ScenarioSpec frontier = BuiltinScenario("ablation-frontier");
  EXPECT_EQ(frontier.frontier_walkers,
            (std::vector<std::size_t>{2, 10, 50}));
  EXPECT_EQ(frontier.crawlers,
            (std::vector<CrawlerKind>{CrawlerKind::kFrontier}));
  // Each ablation pins the method list to the proposed pipeline.
  for (const char* name :
       {"ablation-walk", "ablation-rc", "ablation-jdm", "ablation-rewire",
        "ablation-frontier"}) {
    EXPECT_EQ(BuiltinScenario(name).methods,
              (std::vector<MethodKind>{MethodKind::kProposed}))
        << name;
  }
}

TEST(ScenarioSpecTest, ValidationErrors) {
  const char* cases[] = {
      R"({})",                                        // datasets required
      R"({"datasets": []})",                          // empty datasets
      R"({"datasets": ["nope"]})",                    // unknown dataset
      R"({"datasets": [3]})",                         // wrong entry type
      R"({"datasets": ["anybeat", "anybeat"]})",      // duplicate dataset
      R"({"datasets": [{"model": "m6"}]})",           // unknown model
      R"({"datasets": [{"nodes": 2}]})",              // too few nodes
      R"({"datasets": [{"typo": 1}]})",               // unknown generator key
      R"({"datasets": ["anybeat"], "fractions": []})",
      R"({"datasets": ["anybeat"], "fractions": [0]})",
      R"({"datasets": ["anybeat"], "fractions": [1.5]})",
      R"({"datasets": ["anybeat"], "fractions": ["x"]})",
      R"({"datasets": ["anybeat"], "methods": []})",
      R"({"datasets": ["anybeat"], "methods": ["warp"]})",
      R"({"datasets": ["anybeat"], "methods": ["rw", "rw"]})",
      R"({"datasets": ["anybeat"], "trials": 0})",
      R"({"datasets": ["anybeat"], "trials": 2.5})",
      R"({"datasets": ["anybeat"], "trials": -1})",
      R"({"datasets": ["anybeat"], "rc": -5})",
      R"({"datasets": ["anybeat"], "rc": []})",
      R"({"datasets": ["anybeat"], "rc": [10, 10]})",
      R"({"datasets": ["anybeat"], "walk": "warp"})",
      R"({"datasets": ["anybeat"], "walk": []})",
      R"({"datasets": ["anybeat"], "walk": ["simple", "simple"]})",
      R"({"datasets": ["anybeat"], "walk": 3})",
      R"({"datasets": ["anybeat"], "crawler": "warp"})",
      R"({"datasets": ["anybeat"], "crawler": ["rw", "rw"]})",
      R"({"datasets": ["anybeat"], "estimator": "hybrid"})",
      R"({"datasets": ["anybeat"], "estimator": {"joint_mode": "warp"}})",
      R"({"datasets": ["anybeat"], "estimator": {"typo": 1}})",
      R"({"datasets": ["anybeat"],
          "estimator": [{"joint_mode": "ie"}, {"joint_mode": "ie"}]})",
      R"({"datasets": ["anybeat"],
          "estimator": {"collision_fraction": 0}})",
      R"({"datasets": ["anybeat"],
          "estimator": {"collision_fraction": 1}})",
      R"({"datasets": ["anybeat"], "protect_subgraph": []})",
      R"({"datasets": ["anybeat"], "protect_subgraph": [true, true]})",
      R"({"datasets": ["anybeat"], "protect_subgraph": 1})",
      R"({"datasets": ["anybeat"], "frontier_walkers": 0})",
      R"({"datasets": ["anybeat"], "frontier_walkers": []})",
      R"({"datasets": ["anybeat"], "crawler": "frontier",
          "methods": ["rw"], "frontier_walkers": [5, 5]})",
      // A walker sweep without the frontier crawler duplicates cells —
      // as does a sweep on a mixed crawler axis (the rw cells would run
      // once per walker value).
      R"({"datasets": ["anybeat"], "frontier_walkers": [2, 10]})",
      R"({"datasets": ["anybeat"], "crawler": ["rw", "frontier"],
          "methods": ["rw"], "frontier_walkers": [2, 10]})",
      R"({"datasets": ["anybeat"], "rewire_batch": []})",
      R"({"datasets": ["anybeat"], "rewire_batch": [64, 64]})",
      R"({"datasets": ["anybeat"], "rewire_batch": "big"})",
      R"({"datasets": ["anybeat"], "parallel_assembly": 1})",
      // The retired engine selectors accept only 0 / false.
      R"({"datasets": ["anybeat"], "rewire_batch": 64})",
      R"({"datasets": ["anybeat"], "parallel_assembly": true})",
      // Worker counts share the flags' and variables' cap of 1024.
      R"({"datasets": ["anybeat"], "threads": 100000})",
      R"({"datasets": ["anybeat"], "rewire_threads": 1025})",
      R"({"datasets": ["anybeat"], "assembly_threads": -1})",
      R"({"datasets": ["anybeat"], "estimator_threads": 2000})",
      // The retired intra-trial worker counts accept only 1.
      R"({"datasets": ["anybeat"], "rewire_threads": 0})",
      R"({"datasets": ["anybeat"], "assembly_threads": 2})",
      R"({"datasets": ["anybeat"], "estimator_threads": 4})",
      R"({"datasets": ["anybeat"], "snowball_k": 0})",
      R"({"datasets": ["anybeat"], "forest_fire_pf": 1})",
      R"({"datasets": ["anybeat"], "simplify_output": "yes"})",
      R"({"datasets": ["anybeat"], "dataset_scale": -1})",
      R"({"datasets": ["anybeat"], "track_properties": "yes"})",
      R"({"datasets": ["anybeat"], "track_properties": true,
          "stop_epsilon": -0.5})",
      // The adaptive stop reads the tracked distance: epsilon without
      // tracking is a contradiction, not a silent no-op.
      R"({"datasets": ["anybeat"], "stop_epsilon": 0.5})",
      R"({"datasets": ["anybeat"], "surprise": 1})",  // unknown key
      R"([1, 2, 3])",                                 // not an object
  };
  for (const char* text : cases) {
    EXPECT_THROW(ScenarioSpec::FromJson(Json::Parse(text)), ScenarioError)
        << "spec: " << text;
  }
}

TEST(ScenarioSpecTest, NonFiniteNumbersRejectedForEveryNumericKnob) {
  // The JSON layer deliberately admits Infinity/NaN literals (the writer
  // emits them for round-trip fidelity), so every numeric knob must
  // reject them during spec parsing — otherwise NaN flows silently into
  // ExperimentConfig. One regression case per field and literal.
  const char* templates[] = {
      R"({"datasets": ["anybeat"], "fractions": [%]})",
      R"({"datasets": ["anybeat"], "trials": %})",
      R"({"datasets": ["anybeat"], "threads": %})",
      R"({"datasets": ["anybeat"], "seed_base": %})",
      R"({"datasets": ["anybeat"], "rc": %})",
      R"({"datasets": ["anybeat"], "rc": [%]})",
      R"({"datasets": ["anybeat"],
          "estimator": {"collision_fraction": %}})",
      R"({"datasets": ["anybeat"], "frontier_walkers": %})",
      R"({"datasets": ["anybeat"], "frontier_walkers": [%]})",
      R"({"datasets": ["anybeat"], "rewire_batch": %})",
      R"({"datasets": ["anybeat"], "rewire_batch": [%]})",
      R"({"datasets": ["anybeat"], "rewire_threads": %})",
      R"({"datasets": ["anybeat"], "assembly_threads": %})",
      R"({"datasets": ["anybeat"], "estimator_threads": %})",
      R"({"datasets": ["anybeat"], "path_sources": %})",
      R"({"datasets": ["anybeat"], "snowball_k": %})",
      R"({"datasets": ["anybeat"], "forest_fire_pf": %})",
      R"({"datasets": ["anybeat"], "dataset_scale": %})",
      R"({"datasets": ["anybeat"], "track_properties": true,
          "stop_epsilon": %})",
      R"({"datasets": [{"nodes": %}]})",
      R"({"datasets": [{"edges_per_node": %}]})",
      R"({"datasets": [{"triad_p": %}]})",
      R"({"datasets": [{"fringe_fraction": %}]})",
      R"({"datasets": [{"model": "er", "edges": %}]})",
      R"({"datasets": [{"model": "community", "communities": %}]})",
      R"({"datasets": [{"model": "community", "bridges": %}]})",
      R"({"datasets": [{"seed": %}]})",
  };
  for (const char* tmpl : templates) {
    for (const char* literal : {"NaN", "Infinity", "-Infinity"}) {
      std::string text(tmpl);
      text.replace(text.find('%'), 1, literal);
      EXPECT_THROW(ScenarioSpec::FromJson(Json::Parse(text)),
                   ScenarioError)
          << "spec: " << text;
    }
  }
}

TEST(ScenarioSpecTest, ValidateCatchesProgrammaticallyBuiltBadSpecs) {
  // Specs built in C++ never pass through FromJson; Validate (called by
  // RunScenario) is their only gate. Non-finite values and empty axes
  // must throw rather than reach the engine.
  const auto valid = [] {
    ScenarioSpec spec;
    spec.datasets.push_back({"anybeat", {}});
    return spec;
  };
  EXPECT_NO_THROW(valid().Validate());

  ScenarioSpec nan_fraction = valid();
  nan_fraction.fractions = {std::nan("")};
  EXPECT_THROW(nan_fraction.Validate(), ScenarioError);

  ScenarioSpec inf_rc = valid();
  inf_rc.rcs = {std::numeric_limits<double>::infinity()};
  EXPECT_THROW(inf_rc.Validate(), ScenarioError);

  ScenarioSpec nan_pf = valid();
  nan_pf.forest_fire_pf = std::nan("");
  EXPECT_THROW(nan_pf.Validate(), ScenarioError);

  ScenarioSpec nan_scale = valid();
  nan_scale.dataset_scale = std::nan("");
  EXPECT_THROW(nan_scale.Validate(), ScenarioError);

  ScenarioSpec nan_epsilon = valid();
  nan_epsilon.track_properties = true;
  nan_epsilon.stop_epsilon = std::nan("");
  EXPECT_THROW(nan_epsilon.Validate(), ScenarioError);

  ScenarioSpec untracked_epsilon = valid();
  untracked_epsilon.stop_epsilon = 0.1;  // without track_properties
  EXPECT_THROW(untracked_epsilon.Validate(), ScenarioError);

  ScenarioSpec nan_collision = valid();
  nan_collision.estimators[0].collision_fraction = std::nan("");
  EXPECT_THROW(nan_collision.Validate(), ScenarioError);

  ScenarioSpec empty_walks = valid();
  empty_walks.walks.clear();
  EXPECT_THROW(empty_walks.Validate(), ScenarioError);

  ScenarioSpec many_threads = valid();
  many_threads.threads = 100000;
  EXPECT_THROW(many_threads.Validate(), ScenarioError);

  ScenarioSpec no_methods = valid();
  no_methods.methods.clear();
  EXPECT_THROW(no_methods.Validate(), ScenarioError);

  // RunScenario refuses the same specs before loading any dataset.
  EXPECT_THROW(RunScenario(nan_fraction, 1), ScenarioError);
  // An override above the limit is refused before the pool starts.
  EXPECT_THROW(RunScenario(valid(), kMaxThreads + 1), ScenarioError);
}

TEST(ScenarioSpecTest, GeneratorPreconditionsRejectedNotCrashed) {
  // Schema-valid but infeasible generators must throw ScenarioError from
  // BuildGeneratorGraph — the generators' asserts vanish under NDEBUG, so
  // without this gate these specs SIGFPE / hang / SIGSEGV in Release.
  GeneratorSpec er;
  er.model = "er";
  er.nodes = 10;
  er.edges = 100;  // > n(n-1)/2 = 45: the G(n,m) sampler can never finish
  EXPECT_THROW(BuildGeneratorGraph(er), ScenarioError);

  GeneratorSpec community;
  community.model = "community";
  community.nodes = 100;
  community.communities = 0;  // division by zero
  EXPECT_THROW(BuildGeneratorGraph(community), ScenarioError);

  GeneratorSpec tiny_communities;
  tiny_communities.model = "community";
  tiny_communities.nodes = 20;
  tiny_communities.communities = 10;  // community size 2 <= edges_per_node
  tiny_communities.edges_per_node = 4;
  EXPECT_THROW(BuildGeneratorGraph(tiny_communities), ScenarioError);

  GeneratorSpec social;
  social.model = "social";
  social.nodes = 12;
  social.fringe_fraction = 0.9;  // core 1 <= edges_per_node
  EXPECT_THROW(BuildGeneratorGraph(social), ScenarioError);

  GeneratorSpec zero_epn;
  zero_epn.model = "powerlaw";
  zero_epn.nodes = 100;
  zero_epn.edges_per_node = 0;
  EXPECT_THROW(BuildGeneratorGraph(zero_epn), ScenarioError);

  // A feasible spec of every model still builds.
  for (const char* model : {"powerlaw", "ba", "er", "community", "social"}) {
    GeneratorSpec ok;
    ok.model = model;
    ok.nodes = 100;
    EXPECT_GT(BuildGeneratorGraph(ok).NumNodes(), 0u) << model;
  }
}

TEST(ScenarioSpecTest, MethodTokensRoundTrip) {
  for (MethodKind kind :
       {MethodKind::kBfs, MethodKind::kSnowball, MethodKind::kForestFire,
        MethodKind::kRandomWalk, MethodKind::kGjoka,
        MethodKind::kProposed}) {
    EXPECT_EQ(FromToken<MethodKind>(ToToken(kind)), kind);
  }
  EXPECT_THROW(FromToken<MethodKind>("warp"), ScenarioError);
}

TEST(ScenarioSpecTest, BuiltinsAreValidAndListed) {
  const auto names = BuiltinScenarioNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_TRUE(IsBuiltinScenario(name));
    const ScenarioSpec spec = BuiltinScenario(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.datasets.empty());
    EXPECT_FALSE(BuiltinScenarioDescription(name).empty());
    // Every built-in must survive its own serialization.
    EXPECT_NO_THROW(ScenarioSpec::FromJson(spec.ToJson()));
  }
  EXPECT_FALSE(IsBuiltinScenario("no-such-scenario"));
  EXPECT_THROW(BuiltinScenario("no-such-scenario"), ScenarioError);
}

// ---------------------------------------------------------------------------
// Report document
// ---------------------------------------------------------------------------

TEST(ScenarioReportTest, StripVolatileRemovesEnvironmentAndTimings) {
  const Json report = Json::Parse(R"({
    "schema": "sgr-report/1",
    "environment": {"threads": 4},
    "cells": [
      {"dataset": "a",
       "methods": [{"method": "Proposed", "timings": {"restore_seconds": 1}}],
       "timings": {"wall_seconds": 2}}
    ]
  })");
  const Json stripped = StripVolatile(report);
  EXPECT_EQ(stripped.Find("environment"), nullptr);
  const Json& cell = stripped.Find("cells")->Items()[0];
  EXPECT_EQ(cell.Find("timings"), nullptr);
  EXPECT_EQ(cell.Find("methods")->Items()[0].Find("timings"), nullptr);
  EXPECT_NE(cell.Find("dataset"), nullptr);
  EXPECT_EQ(stripped.Find("schema")->AsString(), "sgr-report/1");
}

TEST(ScenarioReportTest, EnvironmentCaptureIsPopulated) {
  const RunEnvironment environment = CaptureEnvironment(3);
  EXPECT_EQ(environment.threads, 3u);
  const Json json = EnvironmentToJson(environment);
  EXPECT_DOUBLE_EQ(json.Find("threads")->AsNumber(), 3.0);
  EXPECT_NE(json.Find("build"), nullptr);
  EXPECT_NE(json.Find("hardware_concurrency"), nullptr);
  // No datasets recorded -> no "datasets" key: callers that never load
  // datasets keep their historical environment layout.
  EXPECT_EQ(json.Find("datasets"), nullptr);
}

TEST(ScenarioReportTest, EnvironmentEchoesDatasetProvenance) {
  RunEnvironment environment = CaptureEnvironment(1);
  DatasetProvenance file_backed;
  file_backed.name = "anybeat";
  file_backed.source = "file";
  file_backed.path = "/data/anybeat.txt";
  file_backed.content_hash = "28301d34262df120";
  file_backed.scale = 1.0;
  DatasetProvenance generated;
  generated.name = "gowalla";
  generated.source = "generator";
  generated.scale = 0.25;
  environment.datasets = {file_backed, generated};
  const Json json = EnvironmentToJson(environment);
  const Json* datasets = json.Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->Items().size(), 2u);
  const Json& first = datasets->Items()[0];
  EXPECT_EQ(first.Find("name")->AsString(), "anybeat");
  EXPECT_EQ(first.Find("source")->AsString(), "file");
  EXPECT_EQ(first.Find("path")->AsString(), "/data/anybeat.txt");
  EXPECT_EQ(first.Find("content_hash")->AsString(), "28301d34262df120");
  const Json& second = datasets->Items()[1];
  EXPECT_EQ(second.Find("source")->AsString(), "generator");
  EXPECT_EQ(second.Find("path"), nullptr);
  EXPECT_EQ(second.Find("content_hash"), nullptr);
  EXPECT_DOUBLE_EQ(second.Find("scale")->AsNumber(), 0.25);
}

TEST(ScenarioReportTest, ProvenanceLivesInVolatileEnvironmentBlock) {
  // The same spec legitimately runs on real data on one machine and the
  // synthetic stand-in on another — provenance must not break the
  // determinism contract, i.e. StripVolatile removes it with the rest of
  // the environment.
  RunEnvironment environment = CaptureEnvironment(1);
  DatasetProvenance p;
  p.name = "anybeat";
  p.source = "file";
  environment.datasets = {p};
  const Json report =
      MakeReport("sgr run", Json::Object(), Json::Array(), environment);
  ASSERT_NE(report.Find("environment")->Find("datasets"), nullptr);
  const Json stripped = StripVolatile(report);
  EXPECT_EQ(stripped.Find("environment"), nullptr);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A hermetic, CI-sized scenario: generator datasets (no environment
/// dependence), tiny graphs, all six methods.
ScenarioSpec TinySpec() {
  return ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "tiny",
    "datasets": [{"name": "tiny-powerlaw", "model": "powerlaw",
                  "nodes": 150, "edges_per_node": 3, "triad_p": 0.4,
                  "seed": 11}],
    "fractions": [0.1, 0.2],
    "trials": 2,
    "seed_base": 1234,
    "rc": 5,
    "path_sources": 20
  })"));
}

TEST(ScenarioEngineTest, RunsTheFullMatrix) {
  const ScenarioRunResult result = RunScenario(TinySpec(), 1);
  ASSERT_EQ(result.cells.size(), 2u);  // 1 dataset x 2 fractions
  EXPECT_EQ(result.threads, 1u);
  std::uint64_t expected_seed = 1234;
  for (const ScenarioCell& cell : result.cells) {
    EXPECT_EQ(cell.dataset, "tiny-powerlaw");
    EXPECT_GT(cell.nodes, 0u);
    EXPECT_GT(cell.edges, 0u);
    EXPECT_EQ(cell.trials, 2u);
    EXPECT_EQ(cell.seed_base, expected_seed);
    expected_seed += 2;  // trials per cell
    ASSERT_EQ(cell.methods.size(), 6u);
    for (const auto& [kind, aggregate] : cell.methods) {
      (void)kind;
      const DistanceSummary summary = aggregate.distances.Summarize();
      EXPECT_EQ(summary.runs, 2u);
      EXPECT_GE(summary.mean_average, 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(result.cells[0].knobs.fraction, 0.1);
  EXPECT_DOUBLE_EQ(result.cells[1].knobs.fraction, 0.2);
}

TEST(ScenarioEngineTest, RunRecordsDatasetProvenance) {
  const ScenarioRunResult result = RunScenario(TinySpec(), 1);
  ASSERT_EQ(result.datasets.size(), 1u);
  EXPECT_EQ(result.datasets[0].name, "tiny-powerlaw");
  EXPECT_EQ(result.datasets[0].source, "generator");
  const Json report = ScenarioReportToJson(result);
  const Json* datasets = report.Find("environment")->Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->Items().size(), 1u);
  EXPECT_EQ(datasets->Items()[0].Find("source")->AsString(), "generator");
}

TEST(ScenarioEngineTest, ReportJsonHasTheTwelveProperties) {
  const ScenarioRunResult result = RunScenario(TinySpec(), 1);
  const Json report = ScenarioReportToJson(result);
  EXPECT_EQ(report.Find("schema")->AsString(), "sgr-report/1");
  EXPECT_EQ(report.Find("tool")->AsString(), "sgr run");
  EXPECT_NE(report.Find("environment"), nullptr);
  EXPECT_EQ(report.Find("config")->Find("name")->AsString(), "tiny");
  const auto& cells = report.Find("cells")->Items();
  ASSERT_EQ(cells.size(), 2u);
  for (const Json& cell : cells) {
    EXPECT_NE(cell.Find("timings")->Find("wall_seconds"), nullptr);
    const auto& methods = cell.Find("methods")->Items();
    ASSERT_EQ(methods.size(), 6u);
    for (const Json& method : methods) {
      const Json* per_property =
          method.Find("distances")->Find("per_property");
      ASSERT_NE(per_property, nullptr);
      EXPECT_EQ(per_property->Size(), kNumProperties);
      for (const std::string& name : PropertyNames()) {
        EXPECT_NE(per_property->Find(name), nullptr) << name;
      }
      EXPECT_NE(method.Find("distances")->Find("average"), nullptr);
      EXPECT_NE(method.Find("timings")->Find("restore_seconds"), nullptr);
    }
  }
}

TEST(ScenarioEngineTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = TinySpec();
  const ScenarioRunResult sequential = RunScenario(spec, 1);
  const ScenarioRunResult concurrent = RunScenario(spec, 4);
  EXPECT_EQ(concurrent.threads, 4u);
  const std::string a =
      StripVolatile(ScenarioReportToJson(sequential)).Dump(2);
  const std::string b =
      StripVolatile(ScenarioReportToJson(concurrent)).Dump(2);
  EXPECT_EQ(a, b);
  // The stripped report still carries the scientific content.
  EXPECT_NE(a.find("per_property"), std::string::npos);
  EXPECT_NE(a.find("\"average\""), std::string::npos);
}

TEST(ScenarioEngineTest, RewireReportByteIdenticalAcrossThreadCounts) {
  // A spec whose trials rewire must produce the same StripVolatile'd
  // report no matter how many of its trials run at once.
  ScenarioSpec spec = TinySpec();
  spec.rcs = {32};

  const ScenarioRunResult one = RunScenario(spec, 1);
  const ScenarioRunResult two = RunScenario(spec, 2);
  const ScenarioRunResult eight = RunScenario(spec, 8);

  const std::string a = StripVolatile(ScenarioReportToJson(one)).Dump(2);
  const std::string b = StripVolatile(ScenarioReportToJson(two)).Dump(2);
  const std::string c = StripVolatile(ScenarioReportToJson(eight)).Dump(2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // The retired worker key keeps its echo, and the per-method rewire
  // statistics survive the strip (they are content, not timings).
  EXPECT_NE(a.find("\"rewire_threads\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"rc\": 32"), std::string::npos);
  EXPECT_NE(a.find("\"rewire\""), std::string::npos);
  EXPECT_NE(a.find("\"rounds\""), std::string::npos);

  // The generative methods actually rewired, and every rewire block keeps
  // the four retired round counters at 0.
  const Json report = ScenarioReportToJson(one);
  bool saw_attempts = false;
  for (const Json& cell : report.Find("cells")->Items()) {
    for (const Json& method : cell.Find("methods")->Items()) {
      const Json* rewire = method.Find("rewire");
      ASSERT_NE(rewire, nullptr);
      if (rewire->Find("attempts")->AsNumber() > 0.0) saw_attempts = true;
      for (const char* retired :
           {"rounds", "evaluated", "conflicts", "reevaluated"}) {
        ASSERT_NE(rewire->Find(retired), nullptr) << retired;
        EXPECT_EQ(rewire->Find(retired)->AsNumber(), 0.0) << retired;
      }
    }
  }
  EXPECT_TRUE(saw_attempts);
}

TEST(ScenarioEngineTest, TrackedReportByteIdenticalAcrossThreadCounts) {
  // track_properties adds the per-round convergence block to the report.
  // The tracker observes committed swaps only, and those are sequenced
  // deterministically, so the block — double fields included — must be
  // byte-identical no matter how many trials run at once.
  ScenarioSpec spec = TinySpec();
  spec.rcs = {32};
  spec.track_properties = true;

  const ScenarioRunResult one = RunScenario(spec, 1);
  const ScenarioRunResult two = RunScenario(spec, 2);
  const ScenarioRunResult eight = RunScenario(spec, 8);
  const std::string a = StripVolatile(ScenarioReportToJson(one)).Dump(2);
  const std::string b = StripVolatile(ScenarioReportToJson(two)).Dump(2);
  const std::string c = StripVolatile(ScenarioReportToJson(eight)).Dump(2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  // The convergence curve is deterministic content, not a timing — it
  // survives the strip, and the knob echoes in the config block.
  EXPECT_NE(a.find("\"convergence\""), std::string::npos);
  EXPECT_NE(a.find("\"samples\""), std::string::npos);
  EXPECT_NE(a.find("\"track_properties\": true"), std::string::npos);

  // Every method that actually rewires carries a full fixed-length
  // curve; sampling-only methods emit no convergence block at all.
  const Json report = ScenarioReportToJson(one);
  bool saw_curve = false;
  for (const Json& cell : report.Find("cells")->Items()) {
    for (const Json& method : cell.Find("methods")->Items()) {
      const Json* convergence = method.Find("convergence");
      if (convergence == nullptr) continue;
      saw_curve = true;
      EXPECT_NE(convergence->Find("stopped_early"), nullptr);
      const Json* samples = convergence->Find("samples");
      ASSERT_NE(samples, nullptr);
      EXPECT_EQ(samples->Size(), kConvergenceSamples);
      for (const Json& sample : samples->Items()) {
        for (const char* field : {"attempts", "objective",
                                  "clustering_global", "components",
                                  "lcc"}) {
          EXPECT_NE(sample.Find(field), nullptr) << field;
        }
      }
    }
  }
  EXPECT_TRUE(saw_curve);

  // The very same spec with tracking off reproduces the historical
  // report layout byte for byte: no convergence key anywhere, so
  // recorded baselines (BENCH_scenarios.json) stay drift-0.
  spec.track_properties = false;
  const ScenarioRunResult off = RunScenario(spec, 1);
  const std::string d = StripVolatile(ScenarioReportToJson(off)).Dump(2);
  EXPECT_EQ(d.find("\"convergence\""), std::string::npos);
}

/// Downsized ablation-style spec: every new axis active at once on a
/// hermetic generator dataset, methods pinned to the walk-based trio.
ScenarioSpec TinyAxisSpec() {
  return ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "tiny-axes",
    "datasets": [{"name": "tiny-powerlaw", "model": "powerlaw",
                  "nodes": 150, "edges_per_node": 3, "triad_p": 0.4,
                  "seed": 11}],
    "fractions": [0.15],
    "methods": ["rw", "gjoka", "proposed"],
    "walk": ["simple", "non-backtracking"],
    "estimator": [{"joint_mode": "hybrid"}, {"joint_mode": "te"}],
    "rc": [5, 20],
    "protect_subgraph": [true, false],
    "trials": 2,
    "seed_base": 4321,
    "path_sources": 20
  })"));
}

TEST(ScenarioEngineTest, CellsEchoTheirKnobCoordinates) {
  const ScenarioSpec spec = TinyAxisSpec();
  const ScenarioRunResult result = RunScenario(spec, 1);
  // 1 dataset x 1 fraction x 2 walks x 2 estimators x 2 rcs x 2 protects.
  ASSERT_EQ(result.cells.size(), 16u);
  std::uint64_t expected_seed = 4321;
  std::size_t index = 0;
  for (WalkKind walk : {WalkKind::kSimple, WalkKind::kNonBacktracking}) {
    for (JointEstimatorMode joint :
         {JointEstimatorMode::kHybrid,
          JointEstimatorMode::kTraversedEdgesOnly}) {
      for (double rc : {5.0, 20.0}) {
        for (bool protect : {true, false}) {
          const ScenarioCell& cell = result.cells[index];
          EXPECT_EQ(cell.knobs.walk, walk) << index;
          EXPECT_EQ(cell.knobs.crawler, CrawlerKind::kRw) << index;
          EXPECT_EQ(cell.knobs.estimator.joint_mode, joint) << index;
          EXPECT_DOUBLE_EQ(cell.knobs.rc, rc) << index;
          EXPECT_EQ(cell.knobs.protect_subgraph, protect) << index;
          EXPECT_EQ(cell.seed_base, expected_seed) << index;
          // The walk-based trio shares one sample: identical steps.
          const double rw_steps =
              cell.methods.at(MethodKind::kRandomWalk).sample_steps;
          EXPECT_GT(rw_steps, 0.0) << index;
          EXPECT_DOUBLE_EQ(
              cell.methods.at(MethodKind::kGjoka).sample_steps, rw_steps)
              << index;
          EXPECT_DOUBLE_EQ(
              cell.methods.at(MethodKind::kProposed).sample_steps,
              rw_steps)
              << index;
          expected_seed += 2;  // trials per cell
          ++index;
        }
      }
    }
  }
  // The knob echo reaches the report JSON (outside "timings", so it
  // survives StripVolatile and `sgr diff` can pair on it).
  const Json report = StripVolatile(ScenarioReportToJson(result));
  const Json& first = report.Find("cells")->Items()[0];
  EXPECT_EQ(first.Find("walk")->AsString(), "simple");
  EXPECT_EQ(first.Find("crawler")->AsString(), "rw");
  EXPECT_EQ(first.Find("estimator")->Find("joint_mode")->AsString(),
            "hybrid");
  EXPECT_DOUBLE_EQ(first.Find("rc")->AsNumber(), 5.0);
  EXPECT_TRUE(first.Find("protect_subgraph")->AsBool());
  EXPECT_NE(first.Find("methods")->Items()[0].Find("sample_steps"),
            nullptr);
}

TEST(ScenarioEngineTest, AxisSweepsActuallyChangeTheWorkload) {
  const ScenarioRunResult result = RunScenario(TinyAxisSpec(), 1);
  ASSERT_EQ(result.cells.size(), 16u);
  // NBRW needs fewer steps than SRW for the same query budget (its
  // query efficiency — the walk ablation's headline).
  const double srw_steps =
      result.cells[0].methods.at(MethodKind::kProposed).sample_steps;
  const double nbrw_steps =
      result.cells[8].methods.at(MethodKind::kProposed).sample_steps;
  EXPECT_LT(nbrw_steps, srw_steps);
  // The unprotected candidate set must differ from the protected one in
  // the rewire trajectory (same seeds otherwise).
  const RewireAggregate& protected_rewire =
      result.cells[0].methods.at(MethodKind::kProposed).rewire;
  const RewireAggregate& unprotected_rewire =
      result.cells[1].methods.at(MethodKind::kProposed).rewire;
  EXPECT_NE(protected_rewire.accepted, unprotected_rewire.accepted);
}

TEST(ScenarioEngineTest, MultiAxisReportByteIdenticalAcrossThreadCounts) {
  // The determinism contract extended to the full axis matrix: every
  // cell of the ablation-style spec reproduces byte-identically at any
  // trial thread count.
  const ScenarioSpec spec = TinyAxisSpec();
  const std::string a =
      StripVolatile(ScenarioReportToJson(RunScenario(spec, 1))).Dump(2);
  const std::string b =
      StripVolatile(ScenarioReportToJson(RunScenario(spec, 4))).Dump(2);
  EXPECT_EQ(a, b);
  // The retired keys keep their echo at their one legal value, in the
  // config and in every cell.
  EXPECT_NE(a.find("\"assembly_threads\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"estimator_threads\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"parallel_assembly\": false"), std::string::npos);
  EXPECT_NE(a.find("\"rewire_batch\": 0"), std::string::npos);
  EXPECT_NE(a.find("\"frontier_walkers\": 10"), std::string::npos);
}

TEST(ScenarioEngineTest, FrontierWalkerSweepChangesTheSample) {
  ScenarioSpec spec = ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "walkers",
    "datasets": [{"name": "tiny-powerlaw", "model": "powerlaw",
                  "nodes": 200, "edges_per_node": 3, "triad_p": 0.4,
                  "seed": 11}],
    "fractions": [0.2],
    "methods": ["rw"],
    "crawler": "frontier",
    "frontier_walkers": [2, 25],
    "trials": 2,
    "seed_base": 99,
    "path_sources": 20
  })"));
  const ScenarioRunResult result = RunScenario(spec, 1);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].knobs.frontier_walkers, 2u);
  EXPECT_EQ(result.cells[1].knobs.frontier_walkers, 25u);
  // More coupled walkers spread the same budget differently — the walk
  // length (a deterministic function of the sample) must differ.
  EXPECT_NE(
      result.cells[0].methods.at(MethodKind::kRandomWalk).sample_steps,
      result.cells[1].methods.at(MethodKind::kRandomWalk).sample_steps);
}

TEST(ScenarioEngineTest, NonWalkCrawlerRunsSubgraphMethods) {
  // A bfs/snowball/ff crawler is valid without generative methods; the
  // rw method then means "subgraph of that crawl".
  ScenarioSpec spec = ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "crawlers",
    "datasets": [{"name": "tiny-powerlaw", "model": "powerlaw",
                  "nodes": 150, "edges_per_node": 3, "triad_p": 0.4,
                  "seed": 11}],
    "fractions": [0.2],
    "methods": ["rw"],
    "crawler": ["rw", "frontier", "mhrw", "bfs", "snowball", "ff"],
    "trials": 2,
    "seed_base": 77,
    "path_sources": 20
  })"));
  const ScenarioRunResult result = RunScenario(spec, 1);
  ASSERT_EQ(result.cells.size(), 6u);
  for (const ScenarioCell& cell : result.cells) {
    const MethodAggregate& aggregate =
        cell.methods.at(MethodKind::kRandomWalk);
    EXPECT_GT(aggregate.sample_steps, 0.0)
        << ToToken(cell.knobs.crawler);
    EXPECT_EQ(aggregate.distances.Summarize().runs, 2u)
        << ToToken(cell.knobs.crawler);
  }
  // Different crawlers produce different samples: the bfs cell's steps
  // differ from the rw cell's (queried-node count vs walk length).
  EXPECT_NE(
      result.cells[0].methods.at(MethodKind::kRandomWalk).sample_steps,
      result.cells[3].methods.at(MethodKind::kRandomWalk).sample_steps);
}

TEST(ScenarioEngineTest, CellSeedingWrapsDeterministicallyNearUint64Max) {
  // The seeding contract (engine.h): seed_base + c * trials + i wraps
  // modulo 2^64 by design. A spec whose seed_base sits 1 trial short of
  // UINT64_MAX must run, wrap, and reproduce byte-identically.
  ScenarioSpec spec = ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "wrap",
    "datasets": [{"name": "tiny-powerlaw", "model": "powerlaw",
                  "nodes": 150, "edges_per_node": 3, "triad_p": 0.4,
                  "seed": 11}],
    "fractions": [0.1, 0.2],
    "methods": ["proposed"],
    "trials": 2,
    "rc": 5,
    "path_sources": 20
  })"));
  spec.seed_base = std::numeric_limits<std::uint64_t>::max() - 1;
  const ScenarioRunResult result = RunScenario(spec, 1);
  ASSERT_EQ(result.cells.size(), 2u);
  // Cell 0 spans seeds {2^64-2, 2^64-1}; cell 1 wraps to base 0.
  EXPECT_EQ(result.cells[0].seed_base,
            std::numeric_limits<std::uint64_t>::max() - 1);
  EXPECT_EQ(result.cells[1].seed_base, 0u);
  // Deterministic across repetitions and thread counts, wrap included.
  const std::string a =
      StripVolatile(ScenarioReportToJson(result)).Dump(2);
  const std::string b =
      StripVolatile(ScenarioReportToJson(RunScenario(spec, 2))).Dump(2);
  EXPECT_EQ(a, b);
}

TEST(ScenarioEngineTest, CellAggregateMatchesDirectRunExperiments) {
  // The engine's cell aggregation must be exactly the runner's trials
  // reduced in order: trial i seeded seed_base + i, timing means divided
  // by the trial count. Cell 0 (fraction 0.1) runs at the spec's own
  // seed base.
  const ScenarioSpec spec = TinySpec();
  Rng rng(spec.datasets[0].generator->seed);
  const CsrGraph dataset = PreprocessDataset(CsrGraph(GeneratePowerlawCluster(
      spec.datasets[0].generator->nodes,
      spec.datasets[0].generator->edges_per_node,
      spec.datasets[0].generator->triad_p, rng)));
  const ExperimentConfig config = spec.ToExperimentConfig(0.1);
  const GraphProperties properties =
      ComputeProperties(dataset, config.property_options);
  const ScenarioCell cell = RunScenario(spec, 1).cells.front();
  ASSERT_EQ(cell.seed_base, spec.seed_base);
  const auto trials = RunExperiments(dataset, properties, config,
                                     spec.seed_base, spec.trials, 1);
  DistanceAccumulator expected;
  for (const auto& trial : trials) {
    for (const MethodRunResult& r : trial) {
      if (r.kind == MethodKind::kProposed) expected.Add(r.distances);
    }
  }
  EXPECT_DOUBLE_EQ(
      cell.methods.at(MethodKind::kProposed).distances.Summarize()
          .mean_average,
      expected.Summarize().mean_average);
  // The engine drops generated graphs as it goes; the public runner still
  // returns every method's graph.
  for (const auto& trial : trials) {
    ASSERT_FALSE(trial.empty());
    for (const MethodRunResult& r : trial) {
      EXPECT_GT(r.restoration.graph.NumEdges(), 0u) << MethodName(r.kind);
    }
  }
}

/// Two generator datasets of different sizes x two fractions x three
/// trials: twelve tasks, so at 3 and 8 threads the largest-first claim
/// order runs cells of both datasets side by side.
ScenarioSpec TwoDatasetSpec() {
  return ScenarioSpec::FromJson(Json::Parse(R"({
    "name": "two-datasets",
    "datasets": [{"name": "small", "model": "powerlaw", "nodes": 120,
                  "edges_per_node": 2, "triad_p": 0.3, "seed": 5},
                 {"name": "large", "model": "powerlaw", "nodes": 260,
                  "edges_per_node": 3, "triad_p": 0.4, "seed": 6}],
    "fractions": [0.1, 0.2],
    "trials": 3,
    "seed_base": 777,
    "rc": 5,
    "path_sources": 20
  })"));
}

double MetricOr(const ScenarioCell& cell, const std::string& name) {
  const auto it = cell.metrics.find(name);
  return it == cell.metrics.end() ? 0.0 : it->second;
}

/// The progress lines without their timing, which varies run to run.
std::vector<std::string> ProgressLabels(const std::string& progress) {
  std::vector<std::string> labels;
  std::istringstream lines(progress);
  for (std::string line; std::getline(lines, line);) {
    labels.push_back(line.substr(0, line.find(" trials in ")));
  }
  return labels;
}

TEST(ScenarioEngineTest, TaskListIsDeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = TwoDatasetSpec();
  std::vector<ScenarioRunResult> runs;
  std::vector<std::string> progress;
  obs::ResetMetrics();
  obs::EnableMetrics(true);
  for (std::size_t threads : {1, 3, 8}) {
    std::ostringstream lines;
    runs.push_back(RunScenario(spec, threads, &lines));
    progress.push_back(lines.str());
  }
  obs::EnableMetrics(false);
  obs::ResetMetrics();

  const ScenarioRunResult& base = runs.front();
  ASSERT_EQ(base.cells.size(), 4u);
  ASSERT_LT(base.cells[0].edges, base.cells[2].edges);  // sizes differ
  const std::string base_bytes =
      StripVolatile(ScenarioReportToJson(base)).Dump(2);
  const std::vector<std::string> base_labels = ProgressLabels(progress[0]);
  ASSERT_EQ(base_labels.size(), 4u);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(StripVolatile(ScenarioReportToJson(runs[r])).Dump(2),
              base_bytes)
        << "threads " << runs[r].threads;
    // Progress lines come in cell order, whatever finished first.
    EXPECT_EQ(ProgressLabels(progress[r]), base_labels)
        << "threads " << runs[r].threads;
    ASSERT_EQ(runs[r].cells.size(), base.cells.size());
    for (std::size_t c = 0; c < base.cells.size(); ++c) {
      const ScenarioCell& cell = runs[r].cells[c];
      EXPECT_GT(cell.wall_seconds, 0.0);
      // Per-trial sinks attribute the pipeline's counters to their cell
      // exactly, even while cells overlap on the pool.
      for (const char* name : {"oracle.queries", "rewire.attempts",
                               "rewire.accepted", "estimate.chunks"}) {
        EXPECT_EQ(MetricOr(cell, name), MetricOr(base.cells[c], name))
            << name << ", cell " << c << ", threads " << runs[r].threads;
      }
      EXPECT_GT(MetricOr(cell, "oracle.queries"), 0.0);
      EXPECT_GT(MetricOr(cell, "rewire.attempts"), 0.0);
      EXPECT_GT(MetricOr(cell, "estimate.chunks"), 0.0);
    }
  }
}

}  // namespace
}  // namespace sgr
