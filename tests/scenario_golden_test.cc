// Locks on the scenario knob table (spec.cc). The golden tests pin the
// two documents the scenario layer writes into every report: the spec
// echo (ScenarioSpec::ToJson) and the cell echo (ScenarioCellToJson).
// Both sit inside the post-StripVolatile report bytes that recorded
// baselines and benchmark digests hash, so a moved key, a changed number
// format, or a dropped omit-when-default rule must fail here first. The
// row-coverage test fails for a table row whose value never reaches a
// cell or its ExperimentConfig.

#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/report.h"
#include "scenario/spec.h"

namespace sgr {
namespace {

/// Every axis multi-valued, the noise axis active, and every scalar knob
/// away from its default. Built in C++ rather than parsed: no single valid
/// document sweeps walk, crawler and frontier_walkers at once (the
/// cross-axis rules forbid it), but the echo must still be pinned for
/// each of them.
ScenarioSpec EveryKnobSpec() {
  ScenarioSpec spec;
  spec.name = "every-knob";
  spec.datasets = {{"anybeat", {}}, {"tiny", GeneratorSpec{}}};
  spec.datasets[1].generator->model = "community";
  spec.datasets[1].generator->nodes = 120;
  spec.datasets[1].generator->triad_p = 0.25;
  spec.fractions = {0.05, 0.1};
  spec.methods = {MethodKind::kRandomWalk, MethodKind::kProposed};
  spec.trials = 4;
  spec.threads = 2;
  spec.seed_base = 99;
  spec.walks = {WalkKind::kSimple, WalkKind::kNonBacktracking};
  spec.crawlers = {CrawlerKind::kRw, CrawlerKind::kFrontier};
  spec.estimators = {{JointEstimatorMode::kHybrid, 0.025},
                     {JointEstimatorMode::kTraversedEdgesOnly, 0.05}};
  spec.rcs = {25.0, 62.5};
  spec.protects = {true, false};
  spec.frontier_walkers = {3, 12};
  spec.noises = {{}, {0.2, 0.0, 0.125, 300}};
  spec.path_sources = 30;
  spec.snowball_k = 10;
  spec.forest_fire_pf = 0.5;
  spec.simplify_output = true;
  spec.dataset_scale = 0.5;
  spec.track_properties = true;
  spec.stop_epsilon = 0.25;
  return spec;
}

TEST(ScenarioGoldenTest, DefaultSpecEcho) {
  EXPECT_EQ(
      ScenarioSpec().ToJson().Dump(0),
      R"({"name":"custom","datasets":[],"fractions":[0.1],)"
      R"("methods":["bfs","snowball","ff","rw","gjoka","proposed"],)"
      R"("trials":3,"threads":1,"seed_base":24301,"walk":"simple",)"
      R"("crawler":"rw","estimator":{"joint_mode":"hybrid",)"
      R"("collision_fraction":0.025},"rc":500,"protect_subgraph":true,)"
      R"("frontier_walkers":10,"rewire_batch":0,"rewire_threads":1,)"
      R"("parallel_assembly":false,"assembly_threads":1,)"
      R"("estimator_threads":1,"path_sources":0,"snowball_k":50,)"
      R"("forest_fire_pf":0.7,"simplify_output":false,"dataset_scale":0,)"
      R"("track_properties":false,"stop_epsilon":0})");
}

TEST(ScenarioGoldenTest, EveryKnobSpecEcho) {
  EXPECT_EQ(
      EveryKnobSpec().ToJson().Dump(0),
      R"({"name":"every-knob","datasets":["anybeat",{"name":"tiny",)"
      R"("model":"community","nodes":120,"edges_per_node":4,)"
      R"("triad_p":0.25,"fringe_fraction":0.4,"edges":0,"communities":4,)"
      R"("bridges":0,"seed":1}],"fractions":[0.05,0.1],)"
      R"("methods":["rw","proposed"],"trials":4,"threads":2,)"
      R"("seed_base":99,"walk":["simple","non-backtracking"],)"
      R"("crawler":["rw","frontier"],"estimator":[{"joint_mode":"hybrid",)"
      R"("collision_fraction":0.025},{"joint_mode":"te",)"
      R"("collision_fraction":0.05}],"rc":[25,62.5],)"
      R"("protect_subgraph":[true,false],"frontier_walkers":[3,12],)"
      R"("rewire_batch":0,"noise":[{"failure":0,"hidden_edges":0,)"
      R"("churn":0,"api_budget":0},{"failure":0.2,"hidden_edges":0,)"
      R"("churn":0.125,"api_budget":300}],"rewire_threads":1,)"
      R"("parallel_assembly":false,"assembly_threads":1,)"
      R"("estimator_threads":1,"path_sources":30,"snowball_k":10,)"
      R"("forest_fire_pf":0.5,"simplify_output":true,"dataset_scale":0.5,)"
      R"("track_properties":true,"stop_epsilon":0.25})");
}

TEST(ScenarioGoldenTest, NoisyCellEcho) {
  ScenarioCell cell;
  cell.dataset = "anybeat";
  cell.nodes = 300;
  cell.edges = 900;
  cell.knobs.fraction = 0.05;
  cell.knobs.walk = WalkKind::kNonBacktracking;
  cell.knobs.crawler = CrawlerKind::kRw;
  cell.knobs.estimator = {JointEstimatorMode::kInducedEdgesOnly, 0.05};
  cell.knobs.rc = 62.5;
  cell.knobs.protect_subgraph = false;
  cell.knobs.frontier_walkers = 12;
  cell.knobs.noise = {0.2, 0.0, 0.125, 300};
  cell.seed_base = 1234;
  cell.trials = 2;
  cell.wall_seconds = 1.5;
  MethodAggregate& aggregate = cell.methods[MethodKind::kProposed];
  std::array<double, kNumProperties> distances{};
  for (std::size_t i = 0; i < kNumProperties; ++i) {
    distances[i] = 0.125 * static_cast<double>(i);
  }
  aggregate.distances.Add(distances);
  aggregate.total_seconds = 0.75;
  aggregate.rewiring_seconds = 0.5;
  aggregate.sample_steps = 40;
  aggregate.oracle_queries = 15;
  aggregate.rewire.attempts = 200;
  aggregate.rewire.accepted = 50;
  aggregate.rewire.initial_distance = 0.5;
  aggregate.rewire.final_distance = 0.25;
  cell.metrics["oracle.queries"] = 15;
  EXPECT_EQ(
      ScenarioCellToJson(cell).Dump(0),
      R"({"dataset":"anybeat","nodes":300,"edges":900,)"
      R"("query_fraction":0.05,"walk":"non-backtracking","crawler":"rw",)"
      R"("estimator":{"joint_mode":"ie","collision_fraction":0.05},)"
      R"("rc":62.5,"protect_subgraph":false,"rewire_batch":0,)"
      R"("frontier_walkers":12,"noise":{"failure":0.2,"hidden_edges":0,)"
      R"("churn":0.125,"api_budget":300},"seed_base":1234,"trials":2,)"
      R"("methods":[{"method":"Proposed","sample_steps":40,)"
      R"("oracle_queries":15,"distances":{"per_property":{)"
      R"j("n":0,"k_avg":0.125,"P(k)":0.25,"knn(k)":0.375,"c_avg":0.5,)j"
      R"j("c(k)":0.625,"P(s)":0.75,"l_avg":0.875,"P(l)":1,"l_max":1.125,)j"
      R"j("b(k)":1.25,"lambda1":1.375},"average":0.6875,)j"
      R"("sd":0.43150656619183286},)"
      R"("rewire":{"attempts":200,"accepted":50,"rounds":0,"evaluated":0,)"
      R"("conflicts":0,"reevaluated":0,"initial_distance":0.5,)"
      R"("final_distance":0.25},"timings":{"restore_seconds":0.75,)"
      R"("rewiring_seconds":0.5}}],"metrics":{"oracle.queries":15},)"
      R"("timings":{"wall_seconds":1.5}})");
}

/// Every ExperimentConfig field a scenario knob can set.
std::string ConfigFingerprint(const ExperimentConfig& c) {
  const RestorationOptions& r = c.restoration;
  std::ostringstream out;
  out << c.query_fraction << ' ' << ToToken(c.walk) << ' '
      << ToToken(c.crawler) << ' ' << c.frontier_walkers << ' '
      << c.methods.size() << ' ' << c.snowball_k << ' ' << c.forest_fire_pf
      << ' ' << c.noise.failure << ' ' << c.noise.hidden_edges << ' '
      << c.noise.churn << ' ' << c.noise.api_budget << ' '
      << r.rewire.rewiring_coefficient << ' '
      << ToToken(r.estimator.joint_mode) << ' '
      << r.estimator.collision_threshold_fraction << ' '
      << r.simplify_output << ' '
      << r.rewire.track_properties << ' ' << r.rewire.stop_epsilon << ' '
      << r.protect_subgraph << ' ' << c.property_options.max_path_sources;
  return out.str();
}

TEST(ScenarioKnobTableTest, EveryRowReachesTheCellOrTheConfig) {
  // One non-default value per document key. A new row without an entry
  // here fails the first assertion; a row whose value never reaches
  // ExperimentConfig fails the last. A retired key has no legal
  // non-default value: its entry must be rejected instead.
  const std::map<std::string, std::string> non_default = {
      {"name", R"("other")"},
      {"datasets", R"(["brightkite"])"},
      {"fractions", "[0.3]"},
      {"methods", R"(["rw"])"},
      {"trials", "5"},
      {"threads", "3"},
      {"seed_base", "9"},
      {"walk", R"("non-backtracking")"},
      {"crawler", R"("frontier")"},
      {"estimator", R"({"joint_mode": "ie"})"},
      {"rc", "7"},
      {"protect_subgraph", "false"},
      {"frontier_walkers", "3"},
      {"rewire_batch", "8"},
      {"noise", R"({"churn": 0.1})"},
      {"rewire_threads", "2"},
      {"parallel_assembly", "true"},
      {"assembly_threads", "2"},
      {"estimator_threads", "2"},
      {"path_sources", "7"},
      {"snowball_k", "7"},
      {"forest_fire_pf", "0.5"},
      {"simplify_output", "true"},
      {"dataset_scale", "0.5"},
      {"track_properties", "false"},
      {"stop_epsilon", "0.1"},
  };
  // Read by the engine itself rather than copied into ExperimentConfig.
  const std::set<std::string> engine_knobs = {
      "name", "datasets", "trials", "threads", "seed_base", "dataset_scale"};
  const std::set<std::string> retired = {
      "rewire_batch", "rewire_threads", "parallel_assembly",
      "assembly_threads", "estimator_threads"};
  const Json base_doc =
      Json::Parse(R"({"datasets": ["anybeat"], "track_properties": true})");
  const ScenarioSpec base = ScenarioSpec::FromJson(base_doc);
  const CellKnobs base_cell = base.ExpandKnobs().front();
  EXPECT_EQ(ScenarioSpecKeys().size(), non_default.size());
  for (const std::string& key : ScenarioSpecKeys()) {
    ASSERT_EQ(non_default.count(key), 1u) << key;
    Json doc = base_doc;
    doc.Set(key, Json::Parse(non_default.at(key)));
    if (retired.count(key) > 0) {
      EXPECT_THROW(ScenarioSpec::FromJson(doc), ScenarioError) << key;
      continue;
    }
    const ScenarioSpec spec = ScenarioSpec::FromJson(doc);
    EXPECT_NE(spec.ToJson(), base.ToJson()) << key;
    if (engine_knobs.count(key) > 0) continue;
    const CellKnobs cell = spec.ExpandKnobs().front();
    EXPECT_NE(ConfigFingerprint(spec.ToExperimentConfig(cell)),
              ConfigFingerprint(base.ToExperimentConfig(base_cell)))
        << key;
  }
}

TEST(ScenarioKnobTableTest, CellKnobsRoundTripThroughTheirConfig) {
  // The bench path builds an ExperimentConfig by hand and derives the
  // cell echo from it: CellKnobsOf must invert ToExperimentConfig.
  ScenarioSpec spec = EveryKnobSpec();
  for (const CellKnobs& knobs : spec.ExpandKnobs()) {
    EXPECT_EQ(CellKnobsToJson(CellKnobsOf(spec.ToExperimentConfig(knobs)),
                              /*complete=*/true),
              CellKnobsToJson(knobs, /*complete=*/true));
  }
}

TEST(ScenarioKnobTableTest, CellLabelNamesTheKnobsOffTheirDefaults) {
  CellKnobs knobs;
  EXPECT_EQ(CellLabel("anybeat", knobs), "anybeat @ 10%");
  knobs.fraction = 0.05;
  knobs.rc = 250.0;
  knobs.protect_subgraph = false;
  knobs.estimator.joint_mode = JointEstimatorMode::kTraversedEdgesOnly;
  knobs.noise.failure = 0.2;
  EXPECT_EQ(CellLabel("anybeat", knobs),
            "anybeat @ 5% joint_mode=te rc=250 protect_subgraph=false "
            "failure=0.2");
}

}  // namespace
}  // namespace sgr
