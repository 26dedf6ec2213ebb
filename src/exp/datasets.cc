#include "exp/datasets.h"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/parallel.h"
#include "exp/runner.h"
#include "graph/components.h"
#include "graph/edge_list_reader.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"

namespace sgr {

namespace {

/// Scaled synthetic node count; rejects a scale small enough to round the
/// graph away entirely (the generator would otherwise emit an empty graph
/// and downstream property code would divide by zero), and one too large
/// to convert to a node count.
std::size_t ScaledNodeCount(const DatasetSpec& spec, double scale) {
  const double n = static_cast<double>(spec.num_nodes) * scale;
  if (!(n >= 1.0) || n > 1.0e12) {
    throw std::runtime_error(
        "dataset '" + spec.name + "': scale " + std::to_string(scale) +
        " gives " + std::to_string(n) + " nodes (need 1 to 1e12)");
  }
  return static_cast<std::size_t>(n);
}

/// Path of the dataset's edge list if $SGR_DATASET_DIR is set. The file
/// must then exist: a missing file is a hard error naming the resolved
/// path — never a silent fall-back to the synthetic generator.
std::optional<std::string> ResolveDatasetFile(const DatasetSpec& spec) {
  const char* dir = std::getenv("SGR_DATASET_DIR");
  if (dir == nullptr) return std::nullopt;
  const std::filesystem::path path =
      std::filesystem::path(dir) / (spec.name + ".txt");
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error(
        "SGR_DATASET_DIR is set but '" + path.string() +
        "' does not exist; refusing to silently substitute a synthetic "
        "graph for dataset '" + spec.name + "'");
  }
  return path.string();
}

Graph GenerateDataset(const DatasetSpec& spec, double scale) {
  Rng rng(spec.seed);
  return GenerateSocialGraph(ScaledNodeCount(spec, scale),
                             spec.edges_per_node, spec.triad_probability,
                             spec.fringe_fraction, rng);
}

}  // namespace

double ResolveDatasetScale(double scale_override) {
  if (scale_override > 0.0) return scale_override;
  return EnvInput<double>("SGR_DATASET_SCALE", 1.0, kMinDatasetScale,
                          kMaxDatasetScale);
}

IngestOptions IngestOptionsFromEnv() {
  IngestOptions options;
  if (const char* cache = std::getenv("SGR_SNAPSHOT_CACHE")) {
    options.cache_dir = cache;
  }
  options.threads = EnvInput<std::uint64_t>("SGR_INGEST_THREADS", 1, 0,
                                            kMaxThreads);
  if (const std::optional<std::string> compress =
          EnvText("SGR_CSR_COMPRESS")) {
    options.compress = ParseInput<bool>(*compress, "SGR_CSR_COMPRESS")
                           ? IngestOptions::Compress::kOn
                           : IngestOptions::Compress::kOff;
  }
  return options;
}

std::vector<DatasetSpec> StandardDatasets() {
  // Synthetic sizes are scaled-down echoes of Table I: the relative order
  // of sizes and densities is preserved (Livemocha densest, Anybeat
  // smallest) while keeping the full benchmark suite laptop-friendly.
  return {
      {"anybeat", 3000, 5, 0.30, 0.45, 0xA11B3A70ULL, 12645, 49132},
      {"brightkite", 5000, 5, 0.40, 0.40, 0xB216D217ULL, 56739, 212945},
      {"epinions", 6000, 7, 0.30, 0.40, 0xE9141015ULL, 75877, 405739},
      {"slashdot", 6500, 8, 0.20, 0.40, 0x51A51D07ULL, 77360, 469180},
      {"gowalla", 8000, 7, 0.35, 0.40, 0x60A77A11ULL, 196591, 950327},
      {"livemocha", 7000, 15, 0.10, 0.30, 0x11FE30C4ULL, 104103, 2193083},
  };
}

DatasetSpec YoutubeDataset() {
  // Table V queries just 1% of the nodes. At laptop scale that is a few
  // hundred queried nodes — far below the ~11k the paper's 1% of 1.13M
  // yields — so the re-weighted estimates are markedly noisier here than
  // in the paper (EXPERIMENTS.md discusses the effect). Users with hours
  // of compute can raise SGR_DATASET_SCALE (or drop in the real edge
  // list) to recover the paper's sample regime.
  return {"youtube", 30000, 4, 0.15, 0.50, 0x704707BEULL, 1134890,
          2987624};
}

DatasetSpec DatasetByName(const std::string& name) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    if (spec.name == name) return spec;
  }
  if (name == "youtube") return YoutubeDataset();
  throw std::out_of_range("unknown dataset: " + name);
}

Graph LoadDataset(const DatasetSpec& spec, double scale_override) {
  if (const std::optional<std::string> file = ResolveDatasetFile(spec)) {
    return PreprocessDataset(ReadEdgeListFile(*file));
  }
  return PreprocessDataset(
      GenerateDataset(spec, ResolveDatasetScale(scale_override)));
}

CsrGraph LoadDatasetCsr(const DatasetSpec& spec, double scale_override,
                        DatasetProvenance* provenance) {
  if (const std::optional<std::string> file = ResolveDatasetFile(spec)) {
    IngestResult ingested = IngestEdgeListFile(*file, IngestOptionsFromEnv());
    if (provenance != nullptr) {
      provenance->name = spec.name;
      provenance->source = "file";
      provenance->path = *file;
      provenance->content_hash = HashToHex(ingested.content_hash);
      provenance->scale = 1.0;
    }
    return std::move(ingested.graph);
  }
  const double scale = ResolveDatasetScale(scale_override);
  if (provenance != nullptr) {
    provenance->name = spec.name;
    provenance->source = "generator";
    provenance->path.clear();
    provenance->content_hash.clear();
    provenance->scale = scale;
  }
  return CsrGraph(PreprocessDataset(GenerateDataset(spec, scale)));
}

}  // namespace sgr
