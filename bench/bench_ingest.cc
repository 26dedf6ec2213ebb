// Ingestion-throughput bench: generates a deterministic synthetic SNAP
// edge list of a requested size, streams it through the out-of-core
// ingester (graph/edge_list_reader.h), and reports throughput plus peak
// RSS. With --trial 1 it then runs one Proposed-method restoration trial on
// the ingested snapshot — the end-to-end "real dataset at paper scale"
// path BENCHMARKS.md records for a >= 100M-edge file.
//
// The synthetic file is connected by construction (node t attaches to a
// pseudo-random earlier node, then chords are sprinkled on top), written
// with ascending first-appearance ids and a deliberate sprinkling of
// self-loops and duplicate edges so the preprocessing policy is
// exercised at full scale. Generation is a pure function of (--edges,
// --nodes, --seed): the same invocation always produces byte-identical
// input, so csr_hash values are comparable across machines.
//
// Flags (env twins in parentheses, flags win):
//   --edges N       edge lines to write       (SGR_INGEST_EDGES, 4000000)
//   --nodes N       node count                (SGR_INGEST_NODES, edges/8)
//   --threads N     ingest worker threads     (SGR_INGEST_THREADS, 1)
//   --cache DIR     snapshot cache directory  (SGR_SNAPSHOT_CACHE)
//   --file PATH     ingest PATH instead of generating
//   --out PATH      where to write the generated file (default: temp dir)
//   --keep 0|1      keep the generated file (default 0: delete afterwards)
//   --trial 0|1     run one Proposed restoration trial on the snapshot
//   --fraction F    trial query fraction (default 0.0005)
//   --seed S        generation seed (default 42)

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "analysis/properties.h"
#include "exp/datasets.h"
#include "exp/parallel.h"
#include "exp/runner.h"
#include "graph/edge_list_reader.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/parse.h"

namespace sgr {
namespace {

/// SplitMix64 — the generation stream must be identical on every
/// platform, so the bench carries its own mixer instead of relying on a
/// std:: engine's unspecified stream.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Writes `edges` edge lines over `nodes` ids to `path`. The first
/// nodes-1 lines are a random spanning arborescence (t attaches to an
/// earlier node), so the graph is connected and the LCC pass keeps
/// everything; the rest are chords. Every 2^16th chord degenerates into
/// a self-loop and duplicates its predecessor, exercising the drop /
/// collapse policy at scale.
void GenerateEdgeList(const std::string& path, std::uint64_t nodes,
                      std::uint64_t edges, std::uint64_t seed) {
  if (nodes < 2 || edges < nodes - 1) {
    throw std::runtime_error("need nodes >= 2 and edges >= nodes - 1");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  std::string buffer;
  buffer.reserve(std::size_t{1} << 22);
  char line[48];
  std::uint64_t last_u = 0;
  std::uint64_t last_v = 1;
  for (std::uint64_t i = 0; i < edges; ++i) {
    std::uint64_t u;
    std::uint64_t v;
    if (i < nodes - 1) {
      u = i + 1;
      v = Mix(seed ^ i) % (i + 1);
    } else if ((i & 0xFFFF) == 0xABC) {
      u = Mix(seed + i) % nodes;  // deliberate self-loop
      v = u;
    } else if ((i & 0xFFFF) == 0xABD) {
      u = last_u;  // deliberate duplicate of the previous chord
      v = last_v;
    } else {
      u = Mix(seed + i) % nodes;
      v = Mix(seed ^ (i * 0x9e3779b97f4a7c15ULL)) % nodes;
      if (v == u) v = (u + 1) % nodes;
      last_u = u;
      last_v = v;
    }
    const int len =
        std::snprintf(line, sizeof line, "%" PRIu64 " %" PRIu64 "\n", u, v);
    buffer.append(line, static_cast<std::size_t>(len));
    if (buffer.size() >= (std::size_t{1} << 22)) {
      out.write(buffer.data(),
                static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  if (!out) throw std::runtime_error("failed writing '" + path + "'");
}

int Run(int argc, char** argv) {
  const Args args(argc, argv, 1,
                  {"edges", "nodes", "threads", "cache", "file", "out",
                   "keep", "trial", "fraction", "seed"});
  const std::uint64_t edges = args.Get<std::uint64_t>(
      "edges", EnvInput<std::uint64_t>("SGR_INGEST_EDGES", 4000000));
  std::uint64_t nodes = args.Get<std::uint64_t>(
      "nodes", EnvInput<std::uint64_t>("SGR_INGEST_NODES", 0));
  const auto seed = args.Get<std::uint64_t>("seed", 42);
  IngestOptions options = IngestOptionsFromEnv();
  options.threads =
      args.Get<std::uint64_t>("threads", options.threads, 0, kMaxThreads);
  options.cache_dir = args.GetPathOr("cache", options.cache_dir);
  std::string file = args.GetOr("file", "");
  const std::string out_path = args.GetOr("out", "");
  const bool keep = args.Get("keep", false);
  const bool trial = args.Get("trial", false);
  const double fraction = args.Get("fraction", 0.0005, 0.0, 1.0);
  if (nodes == 0) nodes = edges / 8 < 2 ? 2 : edges / 8;

  bool generated = false;
  if (file.empty()) {
    file = out_path.empty()
               ? "/tmp/sgr-bench-ingest-" + std::to_string(edges) + ".txt"
               : out_path;
    std::printf("generating %" PRIu64 " edges over %" PRIu64
                " nodes -> %s\n",
                edges, nodes, file.c_str());
    Timer generate_timer;
    GenerateEdgeList(file, nodes, edges, seed);
    std::printf("generate_seconds %.2f\n", generate_timer.Seconds());
    generated = true;
  }

  Timer ingest_timer;
  IngestResult result = IngestEdgeListFile(file, options);
  const double seconds = ingest_timer.Seconds();
  const double mb =
      static_cast<double>(result.stats.file_bytes) / (1024.0 * 1024.0);
  std::printf("file_bytes %zu\n", result.stats.file_bytes);
  std::printf("edge_lines %zu\n", result.stats.edge_lines);
  std::printf("threads %zu\n", options.threads);
  std::printf("from_cache %d\n", result.from_cache ? 1 : 0);
  std::printf("spilled %d\n", result.stats.spilled ? 1 : 0);
  std::printf("self_loops_dropped %zu\n", result.stats.self_loops_dropped);
  std::printf("parallel_edges_collapsed %zu\n",
              result.stats.parallel_edges_collapsed);
  std::printf("nodes %zu\n", result.graph.NumNodes());
  std::printf("edges %zu\n", result.graph.NumEdges());
  std::printf("csr_hash %s\n",
              HashToHex(CsrContentHash(result.graph)).c_str());
  std::printf("ingest_seconds %.2f\n", seconds);
  std::printf("mb_per_second %.1f\n", mb / seconds);
  std::printf("edges_per_second %.0f\n",
              static_cast<double>(result.stats.edge_lines) / seconds);
  std::printf("peak_rss_bytes %zu\n", obs::PeakRssBytes());

  if (generated && !keep) std::remove(file.c_str());

  if (trial) {
    // One Proposed trial with evaluation knobs scaled for a single-CPU
    // 100M-edge run: a handful of path sources and a short power
    // iteration keep the property evaluation bounded while still
    // touching every subsystem end to end.
    ExperimentConfig config;
    config.query_fraction = fraction;
    config.methods = {MethodKind::kProposed};
    config.restoration.rewire.rewiring_coefficient = 2.0;
    config.property_options.max_path_sources = 4;
    config.property_options.power_iterations = 30;
    Timer property_timer;
    const GraphProperties properties =
        ComputeProperties(result.graph, config.property_options);
    std::printf("trial_properties_seconds %.2f\n",
                property_timer.Seconds());
    Timer trial_timer;
    const auto results = RunExperiment(result.graph, properties, config,
                                       seed);
    std::printf("trial_seconds %.2f\n", trial_timer.Seconds());
    for (const MethodRunResult& r : results) {
      std::printf("trial_method %s\n", MethodName(r.kind).c_str());
      std::printf("trial_sample_steps %.0f\n", r.sample_steps);
      std::printf("trial_oracle_queries %zu\n", r.oracle_queries);
      std::printf("trial_average_distance %.6f\n", r.average_distance);
    }
    std::printf("trial_peak_rss_bytes %zu\n", obs::PeakRssBytes());
  }
  return 0;
}

}  // namespace
}  // namespace sgr

int main(int argc, char** argv) {
  try {
    return sgr::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ingest: %s\n", e.what());
    return 1;
  }
}
