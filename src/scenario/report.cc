#include "scenario/report.h"

#include <fstream>
#include <thread>

#include "analysis/l1.h"

namespace sgr {

RunEnvironment CaptureEnvironment(std::size_t threads,
                                  std::size_t rewire_threads,
                                  std::size_t assembly_threads,
                                  std::size_t estimator_threads) {
  RunEnvironment environment;
  environment.threads = threads;
  environment.rewire_threads = rewire_threads;
  environment.assembly_threads = assembly_threads;
  environment.estimator_threads = estimator_threads;
  environment.hardware_concurrency = std::thread::hardware_concurrency();
#if defined(__VERSION__)
  environment.compiler = __VERSION__;
#endif
#if defined(NDEBUG)
  environment.build = "Release";
#else
  environment.build = "Debug";
#endif
  return environment;
}

Json EnvironmentToJson(const RunEnvironment& environment) {
  Json json = Json::Object();
  json.Set("threads",
           Json::Number(static_cast<double>(environment.threads)));
  json.Set("rewire_threads",
           Json::Number(static_cast<double>(environment.rewire_threads)));
  json.Set("assembly_threads",
           Json::Number(static_cast<double>(environment.assembly_threads)));
  json.Set("estimator_threads",
           Json::Number(
               static_cast<double>(environment.estimator_threads)));
  json.Set("hardware_concurrency",
           Json::Number(
               static_cast<double>(environment.hardware_concurrency)));
  json.Set("compiler", Json::String(environment.compiler));
  json.Set("build", Json::String(environment.build));
  if (!environment.datasets.empty()) {
    Json datasets = Json::Array();
    for (const DatasetProvenance& p : environment.datasets) {
      Json entry = Json::Object();
      entry.Set("name", Json::String(p.name));
      entry.Set("source", Json::String(p.source));
      if (!p.path.empty()) entry.Set("path", Json::String(p.path));
      if (!p.content_hash.empty()) {
        entry.Set("content_hash", Json::String(p.content_hash));
      }
      entry.Set("scale", Json::Number(p.scale));
      datasets.Push(std::move(entry));
    }
    json.Set("datasets", std::move(datasets));
  }
  return json;
}

Json ScenarioCellToJson(const ScenarioCell& cell) {
  Json json = Json::Object();
  json.Set("dataset", Json::String(cell.dataset));
  json.Set("nodes", Json::Number(static_cast<double>(cell.nodes)));
  json.Set("edges", Json::Number(static_cast<double>(cell.edges)));
  const Json knobs = CellKnobsToJson(cell.knobs);
  for (const auto& [key, value] : knobs.ObjectMembers()) json.Set(key, value);
  json.Set("seed_base", Json::Number(static_cast<double>(cell.seed_base)));
  json.Set("trials", Json::Number(static_cast<double>(cell.trials)));

  Json methods = Json::Array();
  for (const auto& [kind, aggregate] : cell.methods) {
    const DistanceSummary summary = aggregate.distances.Summarize();
    Json entry = Json::Object();
    entry.Set("method", Json::String(MethodName(kind)));
    entry.Set("sample_steps", Json::Number(aggregate.sample_steps));
    entry.Set("oracle_queries", Json::Number(aggregate.oracle_queries));
    Json per_property = Json::Object();
    for (std::size_t i = 0; i < kNumProperties; ++i) {
      per_property.Set(PropertyNames()[i],
                       Json::Number(summary.mean_per_property[i]));
    }
    Json distances = Json::Object();
    distances.Set("per_property", std::move(per_property));
    distances.Set("average", Json::Number(summary.mean_average));
    distances.Set("sd", Json::Number(summary.mean_sd));
    entry.Set("distances", std::move(distances));
    Json rewire = Json::Object();
    for (const auto& [key, field] : kRewireFields) {
      rewire.Set(key, Json::Number(aggregate.rewire.*field));
    }
    entry.Set("rewire", std::move(rewire));
    if (!aggregate.convergence.empty()) {
      // Emitted only when the tracker ran, so tracking-off reports keep
      // their exact historical byte layout. Deterministic content: the
      // block survives StripVolatile and `sgr diff` pairs it.
      Json convergence = Json::Object();
      convergence.Set("stopped_early",
                      Json::Number(aggregate.stopped_early));
      Json samples = Json::Array();
      for (const ConvergencePoint& point : aggregate.convergence) {
        Json sample = Json::Object();
        for (const auto& [key, field] : kConvergenceFields) {
          sample.Set(key, Json::Number(point.*field));
        }
        samples.Push(std::move(sample));
      }
      convergence.Set("samples", std::move(samples));
      entry.Set("convergence", std::move(convergence));
    }
    Json timings = Json::Object();
    timings.Set("restore_seconds", Json::Number(aggregate.total_seconds));
    timings.Set("rewiring_seconds",
                Json::Number(aggregate.rewiring_seconds));
    entry.Set("timings", std::move(timings));
    methods.Push(std::move(entry));
  }
  json.Set("methods", std::move(methods));

  if (!cell.metrics.empty()) {
    // Volatile by the same rule as "timings": present only when metrics
    // were captured, removed by StripVolatile, so metrics-off reports
    // keep their exact historical byte layout.
    Json metrics = Json::Object();
    for (const auto& [name, value] : cell.metrics) {
      metrics.Set(name, Json::Number(value));
    }
    json.Set("metrics", std::move(metrics));
  }

  Json timings = Json::Object();
  timings.Set("wall_seconds", Json::Number(cell.wall_seconds));
  json.Set("timings", std::move(timings));
  return json;
}

Json MakeReport(const std::string& tool, Json config_echo, Json cells,
                const RunEnvironment& environment) {
  Json report = Json::Object();
  report.Set("schema", Json::String("sgr-report/1"));
  report.Set("tool", Json::String(tool));
  report.Set("config", std::move(config_echo));
  report.Set("environment", EnvironmentToJson(environment));
  report.Set("cells", std::move(cells));
  return report;
}

namespace {

Json StripVolatileImpl(const Json& value, bool top_level) {
  switch (value.kind()) {
    case Json::Kind::kObject: {
      Json out = Json::Object();
      for (const auto& [key, member] : value.ObjectMembers()) {
        if (key == "timings" || key == "metrics") continue;
        if (top_level && key == "environment") continue;
        out.Set(key, StripVolatileImpl(member, /*top_level=*/false));
      }
      return out;
    }
    case Json::Kind::kArray: {
      Json out = Json::Array();
      for (const Json& item : value.Items()) {
        out.Push(StripVolatileImpl(item, /*top_level=*/false));
      }
      return out;
    }
    default:
      return value;
  }
}

}  // namespace

Json StripVolatile(const Json& document) {
  return StripVolatileImpl(document, /*top_level=*/true);
}

void WriteJsonFile(const Json& document, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << document.Dump(2) << "\n";
  if (!out) {
    throw std::runtime_error("failed writing '" + path + "'");
  }
}

}  // namespace sgr
