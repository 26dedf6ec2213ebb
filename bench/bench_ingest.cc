// Ingestion-throughput bench: generates a deterministic synthetic SNAP
// edge list of a requested size, streams it through the out-of-core
// ingester (graph/edge_list_reader.h), and reports throughput plus peak
// RSS. With --trial it then runs one Proposed-method restoration trial on
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
//   --compress M    auto|on|off               (SGR_CSR_COMPRESS)
//   --cache DIR     snapshot cache directory  (SGR_SNAPSHOT_CACHE)
//   --file PATH     ingest PATH instead of generating
//   --out PATH      where to write the generated file (default: temp dir)
//   --keep          keep the generated file (default: delete afterwards)
//   --trial         run one Proposed restoration trial on the snapshot
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
  std::uint64_t edges = EnvInput<std::uint64_t>("SGR_INGEST_EDGES", 4000000);
  std::uint64_t nodes = EnvInput<std::uint64_t>("SGR_INGEST_NODES", 0);
  std::uint64_t seed = 42;
  IngestOptions options = IngestOptionsFromEnv();
  std::string file;
  std::string out_path;
  bool keep = false;
  bool trial = false;
  double fraction = 0.0005;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--edges") {
      edges = ParseInput<std::uint64_t>(next(), arg);
    } else if (arg == "--nodes") {
      nodes = ParseInput<std::uint64_t>(next(), arg);
    } else if (arg == "--threads") {
      options.threads =
          ParseInput<std::uint64_t>(next(), arg, 0, kMaxThreads);
    } else if (arg == "--compress") {
      const std::string mode = next();
      if (mode == "on") {
        options.compress = IngestOptions::Compress::kOn;
      } else if (mode == "off") {
        options.compress = IngestOptions::Compress::kOff;
      } else if (mode == "auto") {
        options.compress = IngestOptions::Compress::kAuto;
      } else {
        throw std::runtime_error("unknown --compress mode: " + mode);
      }
    } else if (arg == "--cache") {
      options.cache_dir = next();
    } else if (arg == "--file") {
      file = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--seed") {
      seed = ParseInput<std::uint64_t>(next(), arg);
    } else if (arg == "--fraction") {
      fraction = ParseInput<double>(next(), arg, 0.0, 1.0);
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--trial") {
      trial = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
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
  std::printf("compressed %d\n", result.graph.compressed() ? 1 : 0);
  std::printf("neighbor_bytes %zu\n", result.graph.NeighborStorageBytes());
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
    config.property_options.threads = 1;
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
