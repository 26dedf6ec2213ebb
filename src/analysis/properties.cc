#include "analysis/properties.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

#include "dk/dk_extract.h"
#include "exp/parallel.h"
#include "graph/components.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace sgr {

std::vector<double> DegreeDistribution(const CsrGraph& g) {
  const DegreeVector dv = ExtractDegreeVector(g);
  std::vector<double> p(dv.size(), 0.0);
  if (g.NumNodes() == 0) return p;
  for (std::size_t k = 0; k < dv.size(); ++k) {
    p[k] = static_cast<double>(dv[k]) / static_cast<double>(g.NumNodes());
  }
  return p;
}

std::vector<double> NeighborConnectivity(const CsrGraph& g) {
  const std::size_t k_max = g.MaxDegree();
  std::vector<double> sums(k_max + 1, 0.0);
  std::vector<std::size_t> counts(k_max + 1, 0);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const std::size_t k = g.Degree(v);
    if (k == 0) continue;
    double neighbor_degree_sum = 0.0;
    for (NodeId w : g.neighbors(v)) {
      neighbor_degree_sum += static_cast<double>(g.Degree(w));
    }
    sums[k] += neighbor_degree_sum / static_cast<double>(k);
    ++counts[k];
  }
  std::vector<double> knn(k_max + 1, 0.0);
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (counts[k] > 0) knn[k] = sums[k] / static_cast<double>(counts[k]);
  }
  return knn;
}

double NetworkClusteringCoefficient(const CsrGraph& g) {
  return NetworkClusteringFromTriangles(g, CountSharedPartners(g).triangles);
}

namespace {

/// P(s): the shared-partner histogram of CountSharedPartners over the
/// edge count.
std::vector<double> SharedPartnerDistribution(
    const CsrGraph& g, const std::vector<std::int64_t>& histogram) {
  std::vector<double> p(histogram.size(), 0.0);
  if (g.NumEdges() > 0) {
    for (std::size_t s = 0; s < histogram.size(); ++s) {
      p[s] = static_cast<double>(histogram[s]) /
             static_cast<double>(g.NumEdges());
    }
  }
  return p;
}

}  // namespace

std::vector<double> EdgewiseSharedPartners(const CsrGraph& g) {
  return SharedPartnerDistribution(
      g, CountSharedPartners(g).shared_partner_histogram);
}

double LargestEigenvalue(const CsrGraph& g, std::size_t max_iterations,
                         double tolerance) {
  const std::size_t n = g.NumNodes();
  if (n == 0) return 0.0;
  // Start from the degree vector: close to the principal eigenvector in
  // heavy-tailed graphs, so convergence is fast.
  std::vector<double> x(n, 0.0);
  double norm = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    x[v] = static_cast<double>(g.Degree(v)) + 1.0;
    norm += x[v] * x[v];
  }
  norm = std::sqrt(norm);
  for (double& value : x) value /= norm;

  // Iterate on A + I: the shift makes the dominant eigenvalue strictly
  // larger in magnitude than every other one even on bipartite graphs
  // (where A itself has the pair ±λ1 and plain power iteration
  // oscillates). λ1(A) = λ1(A + I) - 1.
  std::vector<double> y(n, 0.0);
  double lambda_shifted = 0.0;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    for (NodeId v = 0; v < n; ++v) {
      double acc = x[v];
      for (NodeId w : g.neighbors(v)) acc += x[w];
      y[v] = acc;
    }
    const double rayleigh =
        std::inner_product(x.begin(), x.end(), y.begin(), 0.0);
    double y_norm = std::sqrt(
        std::inner_product(y.begin(), y.end(), y.begin(), 0.0));
    if (y_norm == 0.0) return 0.0;
    for (NodeId v = 0; v < n; ++v) x[v] = y[v] / y_norm;
    if (std::abs(rayleigh - lambda_shifted) <= tolerance) {
      return rayleigh - 1.0;
    }
    lambda_shifted = rayleigh;
  }
  return lambda_shifted - 1.0;
}

namespace {

/// Scratch and running tallies of BrandesPass, allocated once per
/// participating thread. Every pass leaves distance and sigma as it found
/// them (-1 and 0) and its dependencies in delta, which CommitDependencies
/// then resets, so only the nodes a pass reached are ever touched.
struct BrandesScratch {
  explicit BrandesScratch(const CsrGraph& g)
      : distance(g.NumNodes(), -1),
        sigma(g.NumNodes(), 0.0),
        delta(g.NumNodes(), 0.0),
        pred(g.TotalDegree()),
        pred_end(g.NumNodes()) {
    order.reserve(g.NumNodes());
  }

  std::vector<int> distance;
  std::vector<double> sigma;
  std::vector<double> delta;
  /// The BFS queue; afterwards the reached nodes in BFS order.
  std::vector<NodeId> order;
  /// Shortest-path predecessors of w, in slots laid out like w's CSR row:
  /// pred[offsets[w] .. pred_end[w]). A parallel edge repeats its entry.
  std::vector<NodeId> pred;
  std::vector<std::size_t> pred_end;

  // Integer tallies over this scratch's passes: exact, so the sum over
  // scratches is the same whichever thread ran which source.
  std::vector<std::int64_t> length_histogram;  ///< reached pairs by distance
  std::uint64_t distance_sum = 0;
  std::size_t eccentricity = 0;  ///< largest over the passes
};

/// One Brandes pass from `source`: leaves the dependency of the source on
/// every node it reached in `scratch.delta`, and adds the per-distance
/// counts of the pairs (source, v), v reached, to the scratch's tallies.
/// Nodes outside the source's component contribute nothing.
void BrandesPass(const CsrGraph& g, NodeId source, BrandesScratch& scratch) {
  const std::vector<std::size_t>& offsets = g.raw_offsets();
  std::vector<int>& distance = scratch.distance;
  std::vector<double>& sigma = scratch.sigma;
  std::vector<double>& delta = scratch.delta;
  std::vector<NodeId>& order = scratch.order;
  std::vector<NodeId>& pred = scratch.pred;
  std::vector<std::size_t>& pred_end = scratch.pred_end;

  order.clear();
  distance[source] = 0;
  sigma[source] = 1.0;
  pred_end[source] = offsets[source];
  order.push_back(source);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    const int next = distance[v] + 1;
    for (NodeId w : g.neighbors(v)) {
      if (distance[w] < 0) {
        distance[w] = next;
        pred_end[w] = offsets[w];
        order.push_back(w);
      }
      if (distance[w] == next) {
        sigma[w] += sigma[v];
        pred[pred_end[w]++] = v;
      }
    }
  }
  scratch.eccentricity =
      std::max(scratch.eccentricity,
               static_cast<std::size_t>(distance[order.back()]));
  std::vector<std::int64_t>& histogram = scratch.length_histogram;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto d = static_cast<std::size_t>(distance[order[i]]);
    scratch.distance_sum += d;
    if (d >= histogram.size()) histogram.resize(d + 1, 0);
    ++histogram[d];
  }
  // Dependency accumulation in reverse BFS order, over the predecessor
  // slots only. delta[w] is final when the walk reaches w, and no later
  // step reads w's distance or sigma again, so they are reset right away.
  for (std::size_t i = order.size(); i-- > 0;) {
    const NodeId w = order[i];
    for (std::size_t j = offsets[w]; j < pred_end[w]; ++j) {
      const NodeId v = pred[j];
      delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
    }
    distance[w] = -1;
    sigma[w] = 0.0;
  }
}

/// Adds the dependencies of the scratch's last pass into `betweenness` and
/// resets them. Each node gets one addend per source, so adding the
/// sources' passes in source order gives the same bits as one thread
/// running them all.
void CommitDependencies(BrandesScratch& scratch,
                        std::vector<double>& betweenness) {
  const NodeId source = scratch.order.front();
  for (const NodeId w : scratch.order) {
    if (w != source) betweenness[w] += scratch.delta[w];
    scratch.delta[w] = 0.0;
  }
}

}  // namespace

std::vector<double> BetweennessCentrality(const CsrGraph& g) {
  std::vector<double> betweenness(g.NumNodes(), 0.0);
  BrandesScratch scratch(g);
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    BrandesPass(g, s, scratch);
    CommitDependencies(scratch, betweenness);
  }
  return betweenness;
}

ShortestPathProperties ComputeShortestPathProperties(
    const CsrGraph& g, const PropertyOptions& options) {
  if (options.threads > kMaxThreads) {
    throw std::invalid_argument(
        "PropertyOptions::threads = " + std::to_string(options.threads) +
        " exceeds the limit of " + std::to_string(kMaxThreads));
  }
  ShortestPathProperties result;
  const CsrGraph lcc = PreprocessDataset(g);
  const std::size_t n = lcc.NumNodes();
  if (n < 2) return result;

  // Choose sources: all nodes (exact) or a uniform sample without
  // replacement.
  std::vector<NodeId> sources;
  if (options.max_path_sources == 0 || options.max_path_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), NodeId{0});
  } else {
    Rng rng(options.seed);
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    std::shuffle(all.begin(), all.end(), rng.engine());
    sources.assign(all.begin(),
                   all.begin() + static_cast<std::ptrdiff_t>(
                                     options.max_path_sources));
  }

  // Bader-Madduri-style parallel evaluation with a source-ordered
  // reduction: threads claim sources in ascending order, each running
  // passes on its own scratch, and source i's dependencies are added into
  // `betweenness` only after source i - 1's. Every output is therefore
  // bit-identical at every thread count.
  std::vector<double> betweenness(n, 0.0);
  std::mutex mutex;  // guards spare, committed
  std::vector<std::unique_ptr<BrandesScratch>> spare;
  std::condition_variable turn;
  std::size_t committed = 0;  ///< sources already added to betweenness
  const auto run_source = [&](std::size_t i) {
    std::unique_ptr<BrandesScratch> scratch;
    std::exception_ptr failure;
    try {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!spare.empty()) {
          scratch = std::move(spare.back());
          spare.pop_back();
        }
      }
      if (!scratch) scratch = std::make_unique<BrandesScratch>(lcc);
      BrandesPass(lcc, sources[i], *scratch);
    } catch (...) {
      failure = std::current_exception();  // still take the turn, below
    }
    std::unique_lock<std::mutex> lock(mutex);
    turn.wait(lock, [&] { return committed == i; });
    // Only the thread whose turn it is writes betweenness.
    lock.unlock();
    if (!failure) CommitDependencies(*scratch, betweenness);
    lock.lock();
    ++committed;
    if (!failure) spare.push_back(std::move(scratch));
    lock.unlock();
    turn.notify_all();
    if (failure) std::rethrow_exception(failure);
  };
  const std::size_t threads =
      std::min(ResolveThreadCount(options.threads), sources.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < sources.size(); ++i) run_source(i);
  } else if (ThreadPool* current = ThreadPool::Current()) {
    PoolFor(*current, sources.size(), run_source);
  } else {
    ThreadPool pool(threads);
    PoolFor(pool, sources.size(), run_source);
  }

  std::vector<std::int64_t> hist;
  std::uint64_t distance_sum = 0;
  std::size_t diameter = 0;
  for (const std::unique_ptr<BrandesScratch>& scratch : spare) {
    const std::vector<std::int64_t>& h = scratch->length_histogram;
    if (h.size() > hist.size()) hist.resize(h.size(), 0);
    for (std::size_t l = 0; l < h.size(); ++l) hist[l] += h[l];
    distance_sum += scratch->distance_sum;
    diameter = std::max(diameter, scratch->eccentricity);
  }

  // Source-pair counts: each BFS contributes (n-1) ordered pairs.
  const double ordered_pairs =
      static_cast<double>(sources.size()) * static_cast<double>(n - 1);
  result.average_length = static_cast<double>(distance_sum) / ordered_pairs;
  result.length_dist.assign(hist.size(), 0.0);
  for (std::size_t l = 0; l < hist.size(); ++l) {
    result.length_dist[l] = static_cast<double>(hist[l]) / ordered_pairs;
  }
  result.diameter = diameter;

  // b̄(k): average betweenness of degree-k nodes (LCC degrees). When
  // sampling sources, scale dependencies to the full ordered-pair count.
  const double scale = static_cast<double>(n) /
                       static_cast<double>(sources.size());
  const std::size_t k_max = lcc.MaxDegree();
  std::vector<double> sums(k_max + 1, 0.0);
  std::vector<std::size_t> counts(k_max + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    sums[lcc.Degree(v)] += betweenness[v] * scale;
    ++counts[lcc.Degree(v)];
  }
  result.betweenness_by_degree.assign(k_max + 1, 0.0);
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (counts[k] > 0) {
      result.betweenness_by_degree[k] =
          sums[k] / static_cast<double>(counts[k]);
    }
  }
  return result;
}

GraphProperties ComputeProperties(const CsrGraph& g,
                                  const PropertyOptions& options) {
  GraphProperties p;
  obs::Span local_span("local");
  p.num_nodes = g.NumNodes();
  p.average_degree = g.AverageDegree();
  p.degree_dist = DegreeDistribution(g);
  p.neighbor_connectivity = NeighborConnectivity(g);

  // One common-neighbor pass feeds c̄ (5), c̄(k) (6) and P(s) (7).
  {
    const LocalCounts counts = CountSharedPartners(g);
    p.clustering_global = NetworkClusteringFromTriangles(g, counts.triangles);
    p.clustering_by_degree =
        ExtractDegreeDependentClustering(g, counts.triangles);
    p.esp_dist =
        SharedPartnerDistribution(g, counts.shared_partner_histogram);
  }
  local_span.End();

  obs::Span paths_span("paths");
  const ShortestPathProperties sp =
      ComputeShortestPathProperties(g, options);
  paths_span.End();
  p.average_path_length = sp.average_length;
  p.path_length_dist = sp.length_dist;
  p.diameter = sp.diameter;
  p.betweenness_by_degree = sp.betweenness_by_degree;

  const obs::Span eigen_span("eigen");
  p.largest_eigenvalue = LargestEigenvalue(g, options.power_iterations,
                                           options.power_tolerance);
  return p;
}

}  // namespace sgr
