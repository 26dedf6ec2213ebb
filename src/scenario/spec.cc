#include "scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "exp/datasets.h"
#include "exp/parallel.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {

namespace {

// ---------------------------------------------------------------------------
// Value codecs. Parse, Echo and Check handle one knob value of type T — a
// number, bool, string, enum token, dataset entry or object — so the knob
// table below names only keys, members, ranges and config fields. Every
// error names the offending key.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Allowed values of a numeric knob; each end open or closed.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  bool Contains(double value) const {
    return (lo_open ? value > lo : value >= lo) &&
           (hi_open ? value < hi : value <= hi);
  }

  std::string Text() const {
    std::ostringstream out;
    if (hi == kInf) {
      out << (lo_open ? "> " : ">= ") << lo;
    } else {
      out << "in " << (lo_open ? '(' : '[') << lo << ", " << hi
          << (hi_open ? ')' : ']');
    }
    return out.str();
  }
};

constexpr Range AtLeast(double lo) { return {lo, kInf, false, false}; }
constexpr Range In(char open, double lo, double hi, char close) {
  return {lo, hi, open == '(', close == ')'};
}

/// Token map of an enum knob: its noun (for errors) and its tokens.
template <typename E>
struct Tokens;

template <>
struct Tokens<MethodKind> {
  static constexpr const char* kNoun = "method";
  static constexpr std::pair<MethodKind, const char*> kList[] = {
      {MethodKind::kBfs, "bfs"},       {MethodKind::kSnowball, "snowball"},
      {MethodKind::kForestFire, "ff"}, {MethodKind::kRandomWalk, "rw"},
      {MethodKind::kGjoka, "gjoka"},   {MethodKind::kProposed, "proposed"}};
};

template <>
struct Tokens<WalkKind> {
  static constexpr const char* kNoun = "walk";
  static constexpr std::pair<WalkKind, const char*> kList[] = {
      {WalkKind::kSimple, "simple"},
      {WalkKind::kNonBacktracking, "non-backtracking"},
      {WalkKind::kMetropolisHastings, "metropolis-hastings"}};
};

template <>
struct Tokens<CrawlerKind> {
  static constexpr const char* kNoun = "crawler";
  static constexpr std::pair<CrawlerKind, const char*> kList[] = {
      {CrawlerKind::kRw, "rw"},     {CrawlerKind::kFrontier, "frontier"},
      {CrawlerKind::kMhrw, "mhrw"}, {CrawlerKind::kBfs, "bfs"},
      {CrawlerKind::kSnowball, "snowball"}, {CrawlerKind::kFf, "ff"}};
};

template <>
struct Tokens<JointEstimatorMode> {
  static constexpr const char* kNoun = "joint_mode";
  static constexpr std::pair<JointEstimatorMode, const char*> kList[] = {
      {JointEstimatorMode::kHybrid, "hybrid"},
      {JointEstimatorMode::kInducedEdgesOnly, "ie"},
      {JointEstimatorMode::kTraversedEdgesOnly, "te"}};
};

/// One member of an object-valued knob (a generator, estimator or noise
/// entry): its key and how it parses, echoes and range-checks.
template <typename Owner>
struct Field {
  const char* key;
  std::function<void(Owner&, const Json&, const std::string&)> parse;
  std::function<Json(const Owner&)> echo;
  std::function<void(const Owner&, const std::string&)> check;
};

/// The members of an object-valued knob, and its noun for errors.
template <typename T>
struct Schema {
  const char* noun;
  std::vector<Field<T>> fields;
};

template <typename T>
const Schema<T>& SchemaOf();
template <>
const Schema<GeneratorSpec>& SchemaOf<GeneratorSpec>();
template <>
const Schema<EstimatorSpec>& SchemaOf<EstimatorSpec>();
template <>
const Schema<CrawlNoise>& SchemaOf<CrawlNoise>();

void RequireKnownModel(const std::string& model) {
  for (const char* known : {"powerlaw", "ba", "er", "community", "social"}) {
    if (model == known) return;
  }
  throw ScenarioError("unknown generator model '" + model +
                      "' (powerlaw|ba|er|community|social)");
}

void RequireRegistryDataset(const std::string& name) {
  try {
    (void)DatasetByName(name);
  } catch (const std::out_of_range&) {
    throw ScenarioError("unknown dataset '" + name +
                        "' (anybeat|brightkite|epinions|slashdot|gowalla|"
                        "livemocha|youtube, or a generator object)");
  }
}

template <typename T>
T Parse(const Json& value, const std::string& key) {
  const auto error = [&key](const char* what) {
    return ScenarioError("'" + key + "' must be " + what);
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (!value.IsBool()) throw error("a boolean");
    return value.AsBool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!value.IsString()) throw error("a string");
    return value.AsString();
  } else if constexpr (std::is_enum_v<T>) {
    return FromToken<T>(Parse<std::string>(value, key));
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (!value.IsNumber()) throw error("a number");
    const double number = value.AsNumber();
    if (!std::isfinite(number)) throw error("finite");
    if (std::is_integral_v<T> &&
        (number < 0.0 || number != std::floor(number) || number > 9.0e15)) {
      throw error("a non-negative integer");
    }
    return static_cast<T>(number);
  } else if constexpr (std::is_same_v<T, ScenarioDataset>) {
    if (value.IsString()) return ScenarioDataset{value.AsString(), {}};
    if (!value.IsObject()) {
      throw ScenarioError(
          "'datasets' entries must be registry names or generator objects");
    }
    // A generator object is the generator's members plus its "name".
    ScenarioDataset dataset{"generated", {}};
    Json generator = value;
    if (const Json* label = value.Find("name")) {
      dataset.name = Parse<std::string>(*label, key + ".name");
      generator.Remove("name");
    }
    dataset.generator = Parse<GeneratorSpec>(generator, key);
    return dataset;
  } else {
    if (!value.IsObject()) throw error("an object");
    const Schema<T>& schema = SchemaOf<T>();
    T object;
    for (const auto& [member, member_value] : value.ObjectMembers()) {
      const auto field = std::find_if(
          schema.fields.begin(), schema.fields.end(),
          [&member](const Field<T>& f) { return member == f.key; });
      if (field == schema.fields.end()) {
        throw ScenarioError("unknown " + std::string(schema.noun) +
                            " key '" + member + "'");
      }
      field->parse(object, member_value, key + "." + member);
    }
    return object;
  }
}

template <typename T>
Json Echo(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return Json::Bool(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json::String(value);
  } else if constexpr (std::is_enum_v<T>) {
    return Json::String(ToToken(value));
  } else if constexpr (std::is_arithmetic_v<T>) {
    return Json::Number(static_cast<double>(value));
  } else if constexpr (std::is_same_v<T, ScenarioDataset>) {
    if (!value.generator) return Json::String(value.name);
    Json json = Json::Object();
    json.Set("name", Json::String(value.name));
    const Json generator = Echo(*value.generator);
    for (const auto& [key, member] : generator.ObjectMembers()) {
      json.Set(key, member);
    }
    return json;
  } else {
    Json json = Json::Object();
    for (const Field<T>& field : SchemaOf<T>().fields) {
      json.Set(field.key, field.echo(value));
    }
    return json;
  }
}

template <typename T>
void Check(const T& value, const Range& range, const std::string& key) {
  if constexpr (std::is_same_v<T, bool>) {
    // A bool's range holds 0 (false) and/or 1 (true).
    if (!range.Contains(value ? 1.0 : 0.0)) {
      throw ScenarioError("'" + key + "' must be " +
                          (value ? "false" : "true"));
    }
  } else if constexpr (std::is_arithmetic_v<T>) {
    const double number = static_cast<double>(value);
    if (!std::isfinite(number)) {
      throw ScenarioError("'" + key + "' must be finite");
    }
    if (!range.Contains(number)) {
      throw ScenarioError("'" + key + "' must be " + range.Text());
    }
  } else if constexpr (std::is_same_v<T, ScenarioDataset>) {
    if (value.name.empty()) {
      throw ScenarioError("'" + key + ".name' must be non-empty");
    }
    if (!value.generator) return RequireRegistryDataset(value.name);
    RequireKnownModel(value.generator->model);
    Check(*value.generator, range, key);
  } else if constexpr (std::is_class_v<T> &&
                       !std::is_same_v<T, std::string>) {
    for (const Field<T>& field : SchemaOf<T>().fields) {
      field.check(value, key + "." + field.key);
    }
  }
}

template <typename Owner, typename T>
Field<Owner> MakeField(const char* key, T Owner::*member, Range range = {}) {
  return {key,
          [member](Owner& owner, const Json& value, const std::string& where) {
            owner.*member = Parse<T>(value, where);
          },
          [member](const Owner& owner) { return Echo(owner.*member); },
          [member, range](const Owner& owner, const std::string& where) {
            Check(owner.*member, range, where);
          }};
}

template <>
const Schema<GeneratorSpec>& SchemaOf<GeneratorSpec>() {
  using G = GeneratorSpec;
  static const Schema<G> schema{
      "generator",
      {MakeField("model", &G::model),
       MakeField("nodes", &G::nodes, AtLeast(10)),
       MakeField("edges_per_node", &G::edges_per_node),
       MakeField("triad_p", &G::triad_p, In('[', 0, 1, ']')),
       MakeField("fringe_fraction", &G::fringe_fraction, In('[', 0, 1, ')')),
       MakeField("edges", &G::edges),
       MakeField("communities", &G::communities),
       MakeField("bridges", &G::bridges),
       MakeField("seed", &G::seed)}};
  return schema;
}

template <>
const Schema<EstimatorSpec>& SchemaOf<EstimatorSpec>() {
  static const Schema<EstimatorSpec> schema{
      "estimator",
      {MakeField("joint_mode", &EstimatorSpec::joint_mode),
       MakeField("collision_fraction", &EstimatorSpec::collision_fraction,
                 In('(', 0, 1, ')'))}};
  return schema;
}

template <>
const Schema<CrawlNoise>& SchemaOf<CrawlNoise>() {
  // The oracle itself accepts probabilities in [0, 1]; the spec stops at
  // 0.9 because a cell where (almost) every query fails measures nothing.
  static const Schema<CrawlNoise> schema{
      "noise",
      {MakeField("failure", &CrawlNoise::failure, In('[', 0, 0.9, ']')),
       MakeField("hidden_edges", &CrawlNoise::hidden_edges,
                 In('[', 0, 0.9, ']')),
       MakeField("churn", &CrawlNoise::churn, In('[', 0, 0.9, ']')),
       MakeField("api_budget", &CrawlNoise::api_budget)}};
  return schema;
}

/// Copies a knob value into its ExperimentConfig field, or back. Only the
/// estimator axis maps onto a differently shaped config type.
template <typename To, typename From>
void Assign(To& to, const From& from) {
  to = from;
}
void Assign(EstimatorOptions& to, const EstimatorSpec& from) {
  to.joint_mode = from.joint_mode;
  to.collision_threshold_fraction = from.collision_fraction;
}
void Assign(EstimatorSpec& to, const EstimatorOptions& from) {
  to.joint_mode = from.joint_mode;
  to.collision_fraction = from.collision_threshold_fraction;
}

// ---------------------------------------------------------------------------
// The knob table: one row per top-level document key, in echo order.
// ---------------------------------------------------------------------------

/// A list-valued Field: one value or an array in the document (echoed as
/// an array), at least one value, no duplicates.
template <typename T>
Field<ScenarioSpec> ListField(const char* key,
                              std::vector<T> ScenarioSpec::*member,
                              Range range) {
  return {
      key,
      [member](ScenarioSpec& spec, const Json& value, const std::string& where) {
        std::vector<T> values;
        if (value.IsArray()) {
          for (const Json& item : value.Items()) {
            values.push_back(Parse<T>(item, where + "[]"));
          }
        } else {
          values.push_back(Parse<T>(value, where));
        }
        spec.*member = std::move(values);
      },
      [member](const ScenarioSpec& spec) {
        Json array = Json::Array();
        for (const T& value : spec.*member) array.Push(Echo<T>(value));
        return array;
      },
      [member, range](const ScenarioSpec& spec, const std::string& where) {
        const std::vector<T>& values = spec.*member;
        if (values.empty()) {
          throw ScenarioError("'" + where +
                              "' must contain at least one value");
        }
        for (std::size_t i = 0; i < values.size(); ++i) {
          Check<T>(values[i], range, where);
          for (std::size_t j = 0; j < i; ++j) {
            if (Echo<T>(values[j]) == Echo<T>(values[i])) {
              throw ScenarioError("duplicate '" + where + "' value " +
                                  Echo<T>(values[i]).Dump(0));
            }
          }
        }
      }};
}

/// Bind argument of a knob the engine reads itself rather than copying it
/// into ExperimentConfig (name, datasets, trials, ...).
struct EngineOnly {};

/// One top-level key of the scenario document: its Field, plus how it
/// reaches ExperimentConfig and, for an axis, the cells.
struct Knob : Field<ScenarioSpec> {
  explicit Knob(Field<ScenarioSpec> field)
      : Field<ScenarioSpec>(std::move(field)) {}

  /// Copies the knob into one cell's ExperimentConfig; empty for
  /// EngineOnly knobs.
  std::function<void(const ScenarioSpec&, const CellKnobs&,
                     ExperimentConfig&)>
      apply;
  /// ToJson writes a one-value list bare unless this is set.
  bool always_array = false;
  /// The echo leaves the knob out while it holds its default (the noise
  /// axis: reports from before it existed keep their bytes).
  bool omit_default = false;

  // Axes only: their place in expansion and cell-echo order, the report
  // key of a cell's value, and the cell-side operations.
  int rank = -1;
  const char* cell_key = nullptr;
  std::function<std::size_t(const ScenarioSpec&)> size;
  std::function<void(const ScenarioSpec&, std::size_t, CellKnobs&)> select;
  std::function<Json(const CellKnobs&)> cell_echo;
  /// Reads the cell value back from a config; empty for EngineOnly axes.
  std::function<void(const ExperimentConfig&, CellKnobs&)> from_config;

  Knob& Set(bool Knob::*flag) {
    this->*flag = true;
    return *this;
  }
  Knob& CellKey(const char* report_key) {
    cell_key = report_key;
    return *this;
  }
};

/// `member` of the spec, copied whole into the ExperimentConfig field
/// `bind` returns (a lambda `[](auto& config) -> auto& { return
/// config.x; }`), unless `bind` is EngineOnly.
template <typename T, typename Bind>
Knob Bound(Field<ScenarioSpec> field, T ScenarioSpec::*member, Bind bind) {
  Knob knob(std::move(field));
  if constexpr (!std::is_same_v<Bind, EngineOnly>) {
    knob.apply = [member, bind](const ScenarioSpec& spec, const CellKnobs&,
                                ExperimentConfig& config) {
      Assign(bind(config), spec.*member);
    };
  }
  return knob;
}

/// A single-valued knob.
template <typename T, typename Bind = EngineOnly>
Knob Scalar(const char* key, T ScenarioSpec::*member, Range range = {},
            Bind bind = {}) {
  return Bound(MakeField(key, member, range), member, bind);
}

/// A list of values the engine does not cross into cells.
template <typename T, typename Bind = EngineOnly>
Knob List(const char* key, std::vector<T> ScenarioSpec::*member,
          Range range = {}, Bind bind = {}) {
  return Bound(ListField(key, member, range), member, bind);
}

/// An axis: a list the engine crosses into cells. `rank` is its place in
/// expansion and cell-echo order; each cell holds one of its values in
/// `cell`, echoed under the same key, and copied into the ExperimentConfig
/// field `bind` returns, unless `bind` is EngineOnly (the cell value then
/// stays at its CellKnobs default when read back from a config).
template <typename T, typename Bind>
Knob Axis(int rank, const char* key, std::vector<T> ScenarioSpec::*values,
          T CellKnobs::*cell, Range range, Bind bind) {
  Knob knob(ListField(key, values, range));
  knob.rank = rank;
  knob.cell_key = key;
  if constexpr (!std::is_same_v<Bind, EngineOnly>) {
    knob.apply = [=](const ScenarioSpec&, const CellKnobs& knobs,
                     ExperimentConfig& config) {
      Assign(bind(config), knobs.*cell);
    };
    knob.from_config = [=](const ExperimentConfig& config,
                           CellKnobs& knobs) {
      Assign(knobs.*cell, bind(config));
    };
  }
  knob.size = [=](const ScenarioSpec& spec) { return (spec.*values).size(); };
  knob.select = [=](const ScenarioSpec& spec, std::size_t i,
                    CellKnobs& knobs) { knobs.*cell = (spec.*values)[i]; };
  knob.cell_echo = [=](const CellKnobs& knobs) { return Echo(knobs.*cell); };
  return knob;
}

const std::vector<Knob>& Knobs() {
  using S = ScenarioSpec;
  using C = CellKnobs;
  constexpr Range kWorkers = In('[', 0, kMaxThreads, ']');
  // Every trial runs single-threaded below the scenario pool. The retired
  // intra-trial worker counts stay in the echo (recorded reports hold
  // them) but accept only 1. Likewise the retired engine selectors
  // rewire_batch and parallel_assembly accept only 0 / false: Algorithms
  // 5 and 6 each have one engine.
  constexpr Range kRetiredWorkers = In('[', 1, 1, ']');
  constexpr Range kRetiredOff = In('[', 0, 0, ']');
  static const std::vector<Knob> knobs = {
      Scalar("name", &S::name),
      List("datasets", &S::datasets).Set(&Knob::always_array),
      Axis(0, "fractions", &S::fractions, &C::fraction, In('(', 0, 1, ']'),
           [](auto& c) -> auto& { return c.query_fraction; })
          .Set(&Knob::always_array)
          .CellKey(kQueryFractionKey),
      List("methods", &S::methods, {},
           [](auto& c) -> auto& { return c.methods; })
          .Set(&Knob::always_array),
      Scalar("trials", &S::trials, AtLeast(1)),
      Scalar("threads", &S::threads, kWorkers),
      Scalar("seed_base", &S::seed_base),
      Axis(1, "walk", &S::walks, &C::walk, {},
           [](auto& c) -> auto& { return c.walk; }),
      Axis(2, "crawler", &S::crawlers, &C::crawler, {},
           [](auto& c) -> auto& { return c.crawler; }),
      Axis(3, "estimator", &S::estimators, &C::estimator, {},
           [](auto& c) -> auto& { return c.restoration.estimator; }),
      Axis(4, "rc", &S::rcs, &C::rc, AtLeast(0),
           [](auto& c) -> auto& {
             return c.restoration.rewire.rewiring_coefficient;
           }),
      Axis(5, "protect_subgraph", &S::protects, &C::protect_subgraph, {},
           [](auto& c) -> auto& { return c.restoration.protect_subgraph; }),
      // Echoed before rewire_batch but expanded after it: both orders
      // predate the table, and both are in recorded report bytes.
      Axis(7, "frontier_walkers", &S::frontier_walkers, &C::frontier_walkers,
           AtLeast(1), [](auto& c) -> auto& { return c.frontier_walkers; }),
      Axis(6, "rewire_batch", &S::rewire_batches, &C::rewire_batch,
           kRetiredOff, EngineOnly{}),
      Axis(8, "noise", &S::noises, &C::noise, {},
           [](auto& c) -> auto& { return c.noise; })
          .Set(&Knob::omit_default),
      Scalar("rewire_threads", &S::rewire_threads, kRetiredWorkers),
      Scalar("parallel_assembly", &S::parallel_assembly, kRetiredOff),
      Scalar("assembly_threads", &S::assembly_threads, kRetiredWorkers),
      Scalar("estimator_threads", &S::estimator_threads, kRetiredWorkers),
      Scalar("path_sources", &S::path_sources, {},
             [](auto& c) -> auto& {
               return c.property_options.max_path_sources;
             }),
      Scalar("snowball_k", &S::snowball_k, AtLeast(1),
             [](auto& c) -> auto& { return c.snowball_k; }),
      Scalar("forest_fire_pf", &S::forest_fire_pf, In('(', 0, 1, ')'),
             [](auto& c) -> auto& { return c.forest_fire_pf; }),
      Scalar("simplify_output", &S::simplify_output, {},
             [](auto& c) -> auto& { return c.restoration.simplify_output; }),
      Scalar("dataset_scale", &S::dataset_scale, AtLeast(0)),
      Scalar("track_properties", &S::track_properties, {},
             [](auto& c) -> auto& { return c.restoration.track_properties; }),
      Scalar("stop_epsilon", &S::stop_epsilon, AtLeast(0),
             [](auto& c) -> auto& { return c.restoration.stop_epsilon; }),
  };
  return knobs;
}

/// The axis rows in expansion (and cell-echo) order.
const std::vector<const Knob*>& Axes() {
  static const std::vector<const Knob*> axes = [] {
    std::vector<const Knob*> sorted;
    for (const Knob& knob : Knobs()) {
      if (knob.rank >= 0) sorted.push_back(&knob);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Knob* a, const Knob* b) { return a->rank < b->rank; });
    return sorted;
  }();
  return axes;
}

/// `value` with every part it lacks, or holds with a type other than
/// `fallback`'s, taken from `fallback` (member by member for objects).
Json Reconcile(const Json* value, const Json& fallback) {
  if (value == nullptr || value->kind() != fallback.kind()) return fallback;
  if (!fallback.IsObject()) return *value;
  Json merged = Json::Object();
  for (const auto& [key, member] : fallback.ObjectMembers()) {
    merged.Set(key, Reconcile(value->Find(key), member));
  }
  return merged;
}

}  // namespace

CsrGraph BuildGeneratorGraph(const GeneratorSpec& gen) {
  // Enforce the generators' hard preconditions (asserts in
  // graph/generators.cc, compiled out under NDEBUG) as proper errors, so
  // a schema-valid but infeasible spec fails cleanly in Release instead
  // of crashing or hanging.
  RequireKnownModel(gen.model);
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) throw ScenarioError("generator: " + message);
  };
  if (gen.model != "er") {
    require(gen.edges_per_node >= 1, "'edges_per_node' must be >= 1");
  }
  if (gen.model == "powerlaw" || gen.model == "ba") {
    require(gen.nodes > gen.edges_per_node,
            "'nodes' must exceed 'edges_per_node'");
  } else if (gen.model == "er") {
    const std::size_t edges = gen.edges > 0 ? gen.edges : 4 * gen.nodes;
    const double max_edges = 0.5 * static_cast<double>(gen.nodes) *
                             static_cast<double>(gen.nodes - 1);
    require(static_cast<double>(edges) <= max_edges,
            "'edges' exceeds the simple-graph maximum n(n-1)/2");
  } else if (gen.model == "community") {
    require(gen.communities >= 1, "'communities' must be >= 1");
    require(gen.communities <= gen.nodes &&
                gen.nodes / gen.communities > gen.edges_per_node,
            "community size (nodes / communities) must exceed "
            "'edges_per_node'");
  } else {
    require(gen.fringe_fraction >= 0.0 && gen.fringe_fraction < 1.0,
            "'fringe_fraction' must be in [0, 1)");
    const auto core_nodes = static_cast<std::size_t>(
        static_cast<double>(gen.nodes) * (1.0 - gen.fringe_fraction));
    require(core_nodes > gen.edges_per_node,
            "core size ((1 - fringe_fraction) * nodes) must exceed "
            "'edges_per_node'");
  }

  Rng rng(gen.seed);
  Graph g;
  if (gen.model == "powerlaw") {
    g = GeneratePowerlawCluster(gen.nodes, gen.edges_per_node, gen.triad_p,
                                rng);
  } else if (gen.model == "ba") {
    g = GenerateBarabasiAlbert(gen.nodes, gen.edges_per_node, rng);
  } else if (gen.model == "er") {
    const std::size_t edges = gen.edges > 0 ? gen.edges : 4 * gen.nodes;
    g = GenerateErdosRenyiGnm(gen.nodes, edges, rng);
  } else if (gen.model == "community") {
    const std::size_t bridges =
        gen.bridges > 0 ? gen.bridges : gen.nodes / 50 + 1;
    g = GenerateCommunityGraph(gen.nodes, gen.communities,
                               gen.edges_per_node, gen.triad_p, bridges,
                               rng);
  } else {
    g = GenerateSocialGraph(gen.nodes, gen.edges_per_node, gen.triad_p,
                            gen.fringe_fraction, rng);
  }
  return PreprocessDataset(CsrGraph(g));
}

template <typename E>
E FromToken(const std::string& token) {
  std::string choices;
  for (const auto& [value, name] : Tokens<E>::kList) {
    if (token == name) return value;
    choices += (choices.empty() ? "" : "|") + std::string(name);
  }
  throw ScenarioError("unknown " + std::string(Tokens<E>::kNoun) + " '" +
                      token + "' (" + choices + ")");
}

template <typename E>
std::string ToToken(E value) {
  for (const auto& [candidate, name] : Tokens<E>::kList) {
    if (candidate == value) return name;
  }
  return "unknown";
}

template MethodKind FromToken<MethodKind>(const std::string&);
template WalkKind FromToken<WalkKind>(const std::string&);
template CrawlerKind FromToken<CrawlerKind>(const std::string&);
template JointEstimatorMode FromToken<JointEstimatorMode>(const std::string&);
template std::string ToToken<MethodKind>(MethodKind);
template std::string ToToken<WalkKind>(WalkKind);
template std::string ToToken<CrawlerKind>(CrawlerKind);
template std::string ToToken<JointEstimatorMode>(JointEstimatorMode);

ScenarioSpec ScenarioSpec::FromJson(const Json& json) {
  if (!json.IsObject()) {
    throw ScenarioError("scenario document must be a JSON object");
  }
  ScenarioSpec spec;
  for (const auto& [key, value] : json.ObjectMembers()) {
    const auto& knobs = Knobs();
    const auto knob =
        std::find_if(knobs.begin(), knobs.end(),
                     [&key](const Knob& k) { return key == k.key; });
    if (knob == knobs.end()) throw ScenarioError("unknown key '" + key + "'");
    if (knob->always_array && !value.IsArray()) {
      throw ScenarioError("'" + key + "' must be an array");
    }
    knob->parse(spec, value, key);
  }
  if (json.Find("datasets") == nullptr) {
    throw ScenarioError("'datasets' is required");
  }
  spec.Validate();
  return spec;
}

void ScenarioSpec::Validate() const {
  for (const Knob& knob : Knobs()) knob.check(*this, knob.key);

  std::set<std::string> names;
  for (const ScenarioDataset& dataset : datasets) {
    if (!names.insert(dataset.name).second) {
      throw ScenarioError("duplicate dataset '" + dataset.name + "'");
    }
  }

  // Cross-axis rules. A non-walk crawl cannot feed the re-weighted
  // estimators, and a walk discipline other than "simple" only means
  // something for the single-walker rw crawler.
  const bool has_generative =
      std::count(methods.begin(), methods.end(), MethodKind::kGjoka) > 0 ||
      std::count(methods.begin(), methods.end(), MethodKind::kProposed) > 0;
  for (CrawlerKind crawler : crawlers) {
    const bool non_walk = crawler == CrawlerKind::kBfs ||
                          crawler == CrawlerKind::kSnowball ||
                          crawler == CrawlerKind::kFf;
    if (non_walk && has_generative) {
      throw ScenarioError(
          "crawler '" + ToToken(crawler) +
          "' produces a non-walk sample; the generative methods "
          "(gjoka|proposed) require a walk crawler (rw|frontier|mhrw)");
    }
  }
  for (WalkKind walk : walks) {
    if (walk == WalkKind::kSimple) continue;
    for (CrawlerKind crawler : crawlers) {
      if (crawler != CrawlerKind::kRw) {
        throw ScenarioError(
            "walk '" + ToToken(walk) +
            "' only applies to the rw crawler (crawler '" +
            ToToken(crawler) + "' fixes its own walk discipline)");
      }
    }
  }
  if (frontier_walkers.size() > 1 &&
      !(crawlers.size() == 1 && crawlers[0] == CrawlerKind::kFrontier)) {
    throw ScenarioError(
        "a 'frontier_walkers' sweep requires the crawler axis to be "
        "exactly [\"frontier\"] (every other crawler ignores the knob, so "
        "its cells would be duplicated once per walker value)");
  }
  if (stop_epsilon > 0.0 && !track_properties) {
    throw ScenarioError(
        "'stop_epsilon' requires 'track_properties': true (the adaptive "
        "stop reads the tracked clustering distance)");
  }
}

Json ScenarioSpec::ToJson() const {
  const ScenarioSpec defaults;
  Json json = Json::Object();
  for (const Knob& knob : Knobs()) {
    Json value = knob.echo(*this);
    if (knob.omit_default && value == knob.echo(defaults)) continue;
    if (!knob.always_array && value.IsArray() && value.Size() == 1) {
      Json single = value.Items().front();
      value = std::move(single);
    }
    json.Set(knob.key, std::move(value));
  }
  return json;
}

ExperimentConfig ScenarioSpec::ToExperimentConfig(
    const CellKnobs& knobs) const {
  ExperimentConfig config;
  for (const Knob& knob : Knobs()) {
    if (knob.apply) knob.apply(*this, knobs, config);
  }
  // The clustering normalizer is derived from the walk axis inside the
  // runner; setting it here too keeps direct ExperimentConfig consumers
  // (RestoreProposed callers) consistent.
  config.restoration.estimator.walk_type =
      (knobs.crawler == CrawlerKind::kRw &&
       knobs.walk == WalkKind::kNonBacktracking)
          ? WalkType::kNonBacktracking
          : WalkType::kSimple;
  return config;
}

ExperimentConfig ScenarioSpec::ToExperimentConfig(double fraction) const {
  CellKnobs knobs;
  for (const Knob* axis : Axes()) axis->select(*this, 0, knobs);
  knobs.fraction = fraction;
  return ToExperimentConfig(knobs);
}

std::vector<CellKnobs> ScenarioSpec::ExpandKnobs() const {
  // Each axis multiplies the cells so far by its values, so the first
  // (rank 0) axis varies slowest.
  std::vector<CellKnobs> cells(1);
  for (const Knob* axis : Axes()) {
    std::vector<CellKnobs> crossed;
    for (const CellKnobs& prefix : cells) {
      for (std::size_t i = 0; i < axis->size(*this); ++i) {
        crossed.push_back(prefix);
        axis->select(*this, i, crossed.back());
      }
    }
    cells = std::move(crossed);
  }
  return cells;
}

std::vector<std::string> ScenarioSpecKeys() {
  std::vector<std::string> keys;
  for (const Knob& knob : Knobs()) keys.push_back(knob.key);
  return keys;
}

Json CellKnobsToJson(const CellKnobs& knobs, bool complete) {
  const CellKnobs defaults;
  Json json = Json::Object();
  for (const Knob* axis : Axes()) {
    Json value = axis->cell_echo(knobs);
    if (!complete && axis->omit_default &&
        value == axis->cell_echo(defaults)) {
      continue;
    }
    json.Set(axis->cell_key, std::move(value));
  }
  return json;
}

CellKnobs CellKnobsOf(const ExperimentConfig& config) {
  CellKnobs knobs;
  for (const Knob* axis : Axes()) {
    if (axis->from_config) axis->from_config(config, knobs);
  }
  return knobs;
}

Json CellKnobDefaults(const Json* config_echo) {
  Json defaults = CellKnobsToJson(CellKnobs{}, /*complete=*/true);
  if (config_echo == nullptr || !config_echo->IsObject()) return defaults;
  for (const Knob* axis : Axes()) {
    const Json* echoed = config_echo->Find(axis->key);
    if (echoed != nullptr &&
        echoed->kind() == defaults.Find(axis->cell_key)->kind()) {
      defaults.Set(axis->cell_key, *echoed);
    }
  }
  return defaults;
}

Json CellCoordinates(const Json& cell, const Json& defaults) {
  Json coordinates = Json::Object();
  for (const auto& [key, fallback] : defaults.ObjectMembers()) {
    const Json value = Reconcile(cell.Find(key), fallback);
    if (!value.IsObject()) {
      coordinates.Set(key, value);
      continue;
    }
    for (const auto& [member, member_value] : value.ObjectMembers()) {
      coordinates.Set(member, member_value);
    }
  }
  return coordinates;
}

std::string CellLabel(const std::string& dataset, const Json& cell,
                      const Json& defaults) {
  const Json coordinates = CellCoordinates(cell, defaults);
  const Json baseline = CellCoordinates(defaults, defaults);
  std::ostringstream label;
  label << dataset << " @ "
        << 100.0 * coordinates.Find(kQueryFractionKey)->AsNumber() << "%";
  for (const auto& [name, value] : coordinates.ObjectMembers()) {
    if (name == kQueryFractionKey || value == *baseline.Find(name)) continue;
    label << " " << name << "=";
    if (value.IsString()) {
      label << value.AsString();
    } else if (value.IsBool()) {
      label << (value.AsBool() ? "true" : "false");
    } else {
      label << value.AsNumber();
    }
  }
  return label.str();
}

std::string CellLabel(const std::string& dataset, const CellKnobs& knobs) {
  return CellLabel(dataset, CellKnobsToJson(knobs), CellKnobDefaults());
}

// ---------------------------------------------------------------------------
// Built-in scenarios: each is a scenario document, parsed by FromJson like
// any user's, so `sgr scenarios show` prints exactly what `sgr run` runs.
// ---------------------------------------------------------------------------

namespace {

struct Builtin {
  const char* name;
  /// First line: the `sgr scenarios list` summary. Further lines: the
  /// paper's reference values and the expected shape, which `sgr table`
  /// prints above the measured numbers.
  const char* description;
  std::uint64_t seed_base;
  const char* document;     ///< every other non-default key
};

const Builtin kBuiltins[] = {
    {"tables-smoke",
     "CI-sized smoke matrix: 2 small stand-ins, 2 trials, RC 10 "
     "(seconds; the recorded BENCH_scenarios.json baseline)",
     0x5A0E,
     R"({"datasets": ["anybeat", "brightkite"], "trials": 2, "rc": 10,
         "path_sources": 40, "dataset_scale": 0.1})"},
    {"table2",
     "Table II protocol: per-property L1 on Slashdot/Gowalla/"
     "Livemocha, 10% queried\n"
     "Paper Table II: subgraph sampling biases n and P(k) heavily (L1 of\n"
     "n ~ 0.24-0.44). Expected shape: Proposed and Gjoka et al. fix n,\n"
     "k_avg and P(k); Proposed additionally fixes knn(k), c(k), P(s) and\n"
     "b(k), beating Gjoka et al. decisively on c(k) and P(s) (Slashdot\n"
     "c(k): 0.708 -> 0.205) and on most global properties.",
     0x7AB'2000,
     R"({"datasets": ["slashdot", "gowalla", "livemocha"], "trials": 3,
         "rc": 100, "path_sources": 600})"},
    {"table3",
     "Table III protocol: avg +- SD of L1 on the six standard "
     "datasets, 10% queried\n"
     "Paper Table III, Proposed column (avg +- SD): Anybeat 0.086+-0.062,\n"
     "Brightkite 0.075+-0.061, Epinions 0.058+-0.055, Slashdot\n"
     "0.063+-0.057, Gowalla 0.097+-0.089, Livemocha 0.099+-0.105, the\n"
     "lowest in every row. Expected shape: Proposed has the lowest\n"
     "average on every dataset.",
     0x7AB'3000,
     R"({"datasets": ["anybeat", "brightkite", "epinions", "slashdot",
                      "gowalla", "livemocha"],
         "trials": 3, "rc": 100, "path_sources": 600})"},
    {"table4-time",
     "Table IV protocol: generation times at RC = 500 (read timings "
     "with --threads 1)\n"
     "Paper Table IV: subgraph sampling takes milliseconds, and the\n"
     "generative methods are dominated by rewiring. Proposed is several\n"
     "times faster than Gjoka et al. (9.0x on Anybeat, 10.4x on\n"
     "Epinions), because its rewiring set excludes the sampled\n"
     "subgraph's edges. Absolute seconds depend on hardware and dataset\n"
     "scale; the reproduced quantity is the Gjoka / Proposed ratio of\n"
     "restore s, driven by the rewiring s column.",
     0x7AB'4000,
     R"({"datasets": ["anybeat", "brightkite", "epinions", "slashdot",
                      "gowalla", "livemocha"],
         "trials": 2, "rc": 500, "path_sources": 64})"},
    {"table5-youtube",
     "Table V protocol: the YouTube stand-in at 1% queried\n"
     "Paper Table V, Proposed row: n 0.062, k_avg 0.025, P(k) 0.033,\n"
     "knn(k) 0.196, c_avg 0.022, c(k) 0.409, P(s) 0.106, l_avg 0.042,\n"
     "P(l) 0.191, l_max 0.142, b(k) 0.412, lambda1 0.014; AVG\n"
     "0.138 +- 0.139; 43% faster than Gjoka et al. Expected shape:\n"
     "Proposed lowest on most properties and on the average; subgraph\n"
     "sampling misestimates n by more than 60%.",
     0x7AB'5000,
     R"({"datasets": ["youtube"], "fractions": [0.01], "trials": 2,
         "rc": 50, "path_sources": 300})"},
    {"fig3-sweep",
     "Figure 3 protocol: query-fraction sweep 2%-10% on Anybeat/"
     "Brightkite/Epinions\n"
     "Paper Fig. 3 at 10% queried (avg L1): Anybeat FF 0.099 -> Proposed\n"
     "0.086; Brightkite Gjoka 0.151 -> Proposed 0.075; Epinions Gjoka\n"
     "0.123 -> Proposed 0.058. Expected shape: Proposed lowest at every\n"
     "fraction, generative methods ahead of raw subgraph sampling, and\n"
     "all methods improve as the budget grows.",
     0xF16'3000,
     R"({"datasets": ["anybeat", "brightkite", "epinions"],
         "fractions": [0.02, 0.04, 0.06, 0.08, 0.10], "trials": 3,
         "rc": 100, "path_sources": 600})"},
    // SRW vs NBRW through the full proposed pipeline. The sample_steps
    // field of each cell carries the walk-length comparison (NBRW needs
    // fewer steps for the same query budget); the distances carry the
    // restoration-accuracy comparison. Recording-friendly scale — raise
    // dataset_scale toward 1 for the paper-sized protocol.
    {"ablation-walk",
     "Walk ablation: simple vs non-backtracking walk through the "
     "proposed pipeline (Section II extension)\n"
     "The paper notes that improved walks such as NBRW could be combined\n"
     "with the method, \"while it is not trivial\". Expected shape: NBRW\n"
     "needs fewer steps for the same query budget, at comparable avg L1.",
     0xAB4'0000,
     R"({"datasets": ["anybeat", "brightkite", "epinions", "slashdot",
                      "gowalla", "livemocha"],
         "methods": ["proposed"], "walk": ["simple", "non-backtracking"],
         "trials": 3, "rc": 100, "path_sources": 40,
         "dataset_scale": 0.15})"},
    // The accuracy/time trade-off of the rewiring budget: final D falls
    // with RC while rewiring time grows linearly (read timings with
    // --threads 1). The per-method "rewire" stats block carries
    // initial/final D and the acceptance counters.
    {"ablation-rc",
     "Rewiring-budget ablation: RC sweep 0-500 on the Brightkite "
     "stand-in (Section IV-E)\n"
     "The paper sets RC = 500 after Orsini et al. and notes that a lower\n"
     "RC cuts rewiring time but also the reproducibility of the\n"
     "clustering coefficients. Expected shape: final D falls as RC buys\n"
     "more attempts while rewiring s grows about linearly (read timings\n"
     "at --threads 1).",
     0xAB3'0000,
     R"({"datasets": ["brightkite"], "methods": ["proposed"],
         "rc": [0, 10, 50, 100, 250, 500], "trials": 2, "path_sources": 40,
         "dataset_scale": 0.1})"},
    // Hybrid vs pure IE vs pure TE joint-degree estimation, end to end:
    // the estimator variant shapes the target JDM and therefore the
    // restored graph's distances.
    {"ablation-jdm",
     "Joint-degree-estimator ablation: hybrid vs IE-only vs "
     "TE-only (Section III-E)\n"
     "The hybrid uses induced edges for high-degree pairs and traversed\n"
     "edges for low-degree pairs. Expected shape: at paper scale the\n"
     "hybrid's avg L1 is lowest; at this builtin's reduced scale IE-only\n"
     "is competitive, since the advantage is a large-sample property.",
     0xAB1'0000,
     R"({"datasets": ["anybeat", "brightkite", "epinions", "slashdot",
                      "gowalla", "livemocha"],
         "methods": ["proposed"],
         "estimator": [{"joint_mode": "hybrid"}, {"joint_mode": "ie"},
                       {"joint_mode": "te"}],
         "trials": 3, "rc": 50, "path_sources": 40,
         "dataset_scale": 0.15})"},
    // Candidate set E~ \ E' (protect_subgraph = true, the paper) vs all
    // of E~ (false, Gjoka et al.'s choice) inside the proposed pipeline.
    {"ablation-rewire",
     "Candidate-set ablation: protected (E~ \\ E') vs all-edges "
     "rewiring inside the proposed pipeline (Section IV-E)\n"
     "The paper claims that excluding E' helps rewiring approach the\n"
     "target c(k) and cuts rewiring time. Expected shape: the all-edges\n"
     "cells reach a lower final D (the distance to the noisy estimate)\n"
     "but a higher avg L1 (the distance to the original), and rewire\n"
     "slower.",
     0xAB2'0000,
     R"({"datasets": ["anybeat", "brightkite", "epinions", "slashdot",
                      "gowalla", "livemocha"],
         "methods": ["proposed"], "protect_subgraph": [true, false],
         "trials": 2, "rc": 200, "path_sources": 40,
         "dataset_scale": 0.15})"},
    // Walker-count sweep of Ribeiro & Towsley's frontier crawler through
    // the proposed pipeline: more coupled walkers dilute the per-walker
    // trajectory the clustering estimator's interior term reads.
    {"ablation-frontier",
     "Frontier walker-count sweep: coupled-walker budget vs "
     "restoration accuracy (frontier_walkers axis)",
     0xAB7'0000,
     R"({"datasets": ["brightkite"], "methods": ["proposed"],
         "crawler": "frontier", "frontier_walkers": [2, 10, 50],
         "trials": 2, "rc": 50, "path_sources": 40,
         "dataset_scale": 0.1})"},
    // Robustness sweep of the adversarial oracle: the same protocol under
    // the cooperative oracle, then with each fault family on its own —
    // private/suspended accounts, hidden edges, transient churn, and a
    // hard API-call budget. All six methods run so the cells compare how
    // gracefully each restoration method degrades (the BENCHMARKS.md
    // robustness table). The API budget is in calls, not nodes: at
    // dataset_scale 0.1 the node budget is ~50, and a walk spends ~65-70
    // calls reaching it, so a 40-call budget genuinely truncates every
    // crawl.
    {"ablation-noise",
     "Adversarial-oracle sweep: cooperative oracle vs private "
     "accounts vs hidden edges vs churn vs an API-call budget "
     "(noise axis), all six methods\n"
     "Not in the paper, which assumes a cooperative oracle. Read each\n"
     "row as a fault-family profile: how gracefully each method degrades\n"
     "from the cooperative row.",
     0xAB8'0000,
     R"({"datasets": ["brightkite"],
         "noise": [{}, {"failure": 0.2}, {"hidden_edges": 0.3},
                   {"churn": 0.2}, {"api_budget": 40}],
         "trials": 2, "rc": 10, "path_sources": 40,
         "dataset_scale": 0.1})"},
};

const Builtin& FindBuiltin(const std::string& name) {
  for (const Builtin& builtin : kBuiltins) {
    if (name == builtin.name) return builtin;
  }
  throw ScenarioError("unknown built-in scenario '" + name + "'");
}

}  // namespace

std::vector<std::string> BuiltinScenarioNames() {
  std::vector<std::string> names;
  for (const Builtin& builtin : kBuiltins) names.push_back(builtin.name);
  return names;
}

bool IsBuiltinScenario(const std::string& name) {
  return std::any_of(
      std::begin(kBuiltins), std::end(kBuiltins),
      [&name](const Builtin& builtin) { return name == builtin.name; });
}

std::string BuiltinScenarioDescription(const std::string& name) {
  return FindBuiltin(name).description;
}

ScenarioSpec BuiltinScenario(const std::string& name) {
  const Builtin& builtin = FindBuiltin(name);
  ScenarioSpec spec = ScenarioSpec::FromJson(Json::Parse(builtin.document));
  spec.name = name;
  spec.seed_base = builtin.seed_base;
  return spec;
}

}  // namespace sgr
