#ifndef SGR_EXP_DATASETS_H_
#define SGR_EXP_DATASETS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/edge_list_reader.h"

namespace sgr {

/// One evaluation dataset. The paper evaluates on seven public social
/// graphs (Table I). This registry provides synthetic stand-ins of each —
/// Holme–Kim power-law-cluster graphs with per-dataset size/density/
/// clustering knobs, preprocessed exactly as Section V-A prescribes — plus
/// a loader for the real edge lists when they are available on disk (drop
/// SNAP/networkrepository files into $SGR_DATASET_DIR to reproduce the
/// paper verbatim; see DESIGN.md "Substitutions").
struct DatasetSpec {
  std::string name;             ///< paper dataset name (lowercase)
  std::size_t num_nodes;        ///< synthetic stand-in size (scaled down)
  std::size_t edges_per_node;   ///< Holme–Kim attachment parameter (core)
  double triad_probability;     ///< Holme–Kim triad-closure probability
  double fringe_fraction;       ///< low-degree periphery share (see
                                ///  GenerateSocialGraph)
  std::uint64_t seed;           ///< generation seed (deterministic graphs)
  std::size_t paper_nodes;      ///< Table I node count (reference)
  std::size_t paper_edges;      ///< Table I edge count (reference)
};

/// The six datasets of Tables II-IV / Fig. 3 (everything except YouTube).
std::vector<DatasetSpec> StandardDatasets();

/// The YouTube stand-in of Table V (largest graph, 1% queried).
DatasetSpec YoutubeDataset();

/// Spec by name (any of the seven); throws std::out_of_range if unknown.
DatasetSpec DatasetByName(const std::string& name);

/// Where a materialized dataset actually came from — echoed into the
/// sgr-report/1 environment block so a report records whether it ran on
/// real data or the synthetic stand-in (and which exact file bytes).
struct DatasetProvenance {
  std::string name;          ///< dataset name (registry key)
  std::string source;        ///< "file" or "generator"
  std::string path;          ///< resolved file path ("" for generator)
  std::string content_hash;  ///< 16-hex FNV-1a-64 of the file bytes ("" for
                             ///  generator)
  double scale = 1.0;        ///< effective synthetic scale (1.0 for file)
};

/// Accepted range of $SGR_DATASET_SCALE.
inline constexpr double kMinDatasetScale = 1e-6;
inline constexpr double kMaxDatasetScale = 1e4;

/// The effective synthetic scale: a positive `scale_override` wins,
/// otherwise $SGR_DATASET_SCALE (default 1.0), parsed strictly — a
/// malformed or out-of-range value throws InputError naming the variable.
double ResolveDatasetScale(double scale_override = 0.0);

/// Ingest options from the environment: $SGR_SNAPSHOT_CACHE (cache
/// directory) and $SGR_INGEST_THREADS (worker count, default 1; 0 =
/// hardware concurrency). Malformed values throw InputError.
IngestOptions IngestOptionsFromEnv();

/// The synthetic stand-in of `spec` with spec.num_nodes * `scale` nodes
/// (a Holme–Kim social graph from spec.seed), preprocessed by
/// PreprocessDataset (graph/components.h). Throws std::runtime_error if
/// the scale rounds the node count to zero. This is what `sgr datasets
/// export` writes and what LoadDatasetCsr returns without a dataset file.
CsrGraph GenerateDataset(const DatasetSpec& spec, double scale);

/// Materializes a dataset as a CSR snapshot — the scenario engine's entry
/// point. If $SGR_DATASET_DIR is set, the edge list
/// $SGR_DATASET_DIR/<name>.txt is REQUIRED — a missing file is a hard
/// error naming the resolved path, never a silent fall-back to the
/// synthetic generator (running "real-data" experiments on an
/// accidentally-synthetic graph is the failure mode this guards). The
/// file goes through the out-of-core ingester (graph/edge_list_reader.h):
/// optional content-hash snapshot cache ($SGR_SNAPSHOT_CACHE names the
/// directory) and ingest worker count from $SGR_INGEST_THREADS (default
/// 1; 0 = hardware concurrency). With $SGR_DATASET_DIR unset,
/// GenerateDataset builds the synthetic stand-in. Either way the result
/// is preprocessed (simplified + largest connected component) by the one
/// kernel, PreprocessDataset.
///
/// The environment variable SGR_DATASET_SCALE (default 1.0) multiplies
/// the synthetic node count, letting users run closer to paper scale on
/// bigger machines; a malformed or non-positive value is rejected, and a
/// scale that rounds the node count to zero is an error. A nonzero
/// `scale_override` takes precedence over the environment — the scenario
/// engine uses it so a scenario.json with an explicit `dataset_scale` is
/// reproducible regardless of the caller's environment. If `provenance`
/// is non-null it receives the data-source record for the report
/// environment block.
CsrGraph LoadDatasetCsr(const DatasetSpec& spec, double scale_override = 0.0,
                        DatasetProvenance* provenance = nullptr);

}  // namespace sgr

#endif  // SGR_EXP_DATASETS_H_
