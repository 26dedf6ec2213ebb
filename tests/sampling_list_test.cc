#include "sampling/sampling_list.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "estimation/estimators.h"
#include "graph/generators.h"
#include "sampling/bfs.h"
#include "sampling/forest_fire.h"
#include "sampling/frontier.h"
#include "sampling/list_io.h"
#include "sampling/metropolis_hastings.h"
#include "sampling/non_backtracking.h"
#include "sampling/perturbed_oracle.h"
#include "sampling/random_walk.h"
#include "sampling/snowball.h"
#include "sampling/subgraph.h"

#include "edge_array_hash.h"

namespace sgr {
namespace {

/// FNV-1a-64 over a byte string or a sequence of 64-bit words.
class Fnv {
 public:
  void Bytes(const std::string& text) {
    for (const char c : text) Byte(static_cast<unsigned char>(c));
  }
  void Word(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) Byte((word >> (8 * byte)) & 0xffu);
  }
  void Double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Word(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(std::uint64_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t ListBytesHash(const SamplingList& list) {
  std::ostringstream out;
  WriteSamplingList(list, out);
  Fnv h;
  h.Bytes(out.str());
  return h.value();
}

/// Bits of every estimate EstimateLocalProperties returns, the joint
/// distribution in ascending key order.
std::uint64_t EstimateBitsHash(const LocalEstimates& est) {
  Fnv h;
  h.Double(est.num_nodes);
  h.Double(est.average_degree);
  h.Word(est.degree_dist.size());
  for (const double p : est.degree_dist) h.Double(p);
  h.Word(est.clustering.size());
  for (const double c : est.clustering) h.Double(c);
  const auto& joint = est.joint_dist.values();
  h.Word(joint.size());
  for (const std::uint64_t key : SortedKeys(joint)) {
    h.Word(key);
    h.Double(joint.at(key));
  }
  return h.value();
}

struct FrozenCrawl {
  const char* name;
  bool is_walk;
  std::function<SamplingList(const CsrGraph&, Rng&)> crawl;
  std::uint64_t list_bytes;
  std::uint64_t subgraph_edges;
  std::uint64_t estimates;  ///< 0 for non-walk crawls
};

// Pin test: every crawler's written list, the subgraph it induces and, for
// walks, every estimate bit. The hashes were recorded before the sampling
// list became a sorted compact record; a slip in the recorder, in Finish()
// or in any reader moves at least one of them.
TEST(SamplingListTest, CrawlOutputsAreFrozen) {
  constexpr std::size_t kWalkBudget = 1100;
  Rng gen_rng(41);
  const CsrGraph g(GeneratePowerlawCluster(2000, 3, 0.4, gen_rng));
  const std::vector<FrozenCrawl> crawls = {
      {"rw", true,
       [](const CsrGraph& graph, Rng& rng) {
         QueryOracle oracle(graph);
         return RandomWalkSample(oracle, 7, kWalkBudget, rng);
       },
       0x62782cf8ab5ee09fULL, 0xf470644fdcdbd3edULL,
       0xa24b60f076965c3fULL},
      {"nbrw", true,
       [](const CsrGraph& graph, Rng& rng) {
         QueryOracle oracle(graph);
         return NonBacktrackingWalkSample(oracle, 7, kWalkBudget, rng);
       },
       0x16a163439b8adcb3ULL, 0xb981b61a6dae1446ULL,
       0x830296adfc6e2861ULL},
      {"mhrw", true,
       [](const CsrGraph& graph, Rng& rng) {
         QueryOracle oracle(graph);
         return MetropolisHastingsWalkSample(oracle, 7, kWalkBudget, rng);
       },
       0x2bc4d7d9a8355cf9ULL, 0xdd591e9cda38f486ULL,
       0x1e1bcbbbab6180cfULL},
      {"frontier", true,
       [](const CsrGraph& graph, Rng& rng) {
         QueryOracle oracle(graph);
         return FrontierSample(oracle, {7, 70, 700}, kWalkBudget, rng);
       },
       0xaa5f62d379c96a96ULL, 0xfb4410c9d674c0fcULL,
       0x8be4b1f659abf0b1ULL},
      {"bfs", false,
       [](const CsrGraph& graph, Rng&) {
         QueryOracle oracle(graph);
         return BfsSample(oracle, 7, 300);
       },
       0x940cac0cbad20058ULL, 0x9aa00bf9806d6391ULL,
       0},
      {"snowball", false,
       [](const CsrGraph& graph, Rng& rng) {
         QueryOracle oracle(graph);
         return SnowballSample(oracle, 7, 300, 5, rng);
       },
       0xf494cb90991c78eeULL, 0x08b726665db1d782ULL,
       0},
      {"ff", false,
       [](const CsrGraph& graph, Rng& rng) {
         QueryOracle oracle(graph);
         return ForestFireSample(oracle, 7, 300, 0.7, rng);
       },
       0x2d86d066fc37825dULL, 0xfc5de674a44ee8a8ULL,
       0},
      {"rw-perturbed", true,
       [](const CsrGraph& graph, Rng& rng) {
         CrawlNoise noise;
         noise.hidden_edges = 0.2;
         noise.churn = 0.1;
         PerturbedOracle oracle(graph, noise, /*noise_seed=*/99);
         return RandomWalkSample(oracle, 7, kWalkBudget, rng, 20000);
       },
       0xf659ca9723a758baULL, 0x68b31425ac473477ULL,
       0x3c9abba6a4581366ULL},
  };
  for (const FrozenCrawl& frozen : crawls) {
    SCOPED_TRACE(frozen.name);
    Rng rng(5);
    const SamplingList list = frozen.crawl(g, rng);
    // Walks span more than one estimator chunk, so the chunk merges are pinned.
    if (frozen.is_walk) EXPECT_GT(list.Length(), kEstimatorChunkSize);
    const Subgraph sub = BuildSubgraph(list);
    const std::uint64_t estimates =
        frozen.is_walk ? EstimateBitsHash(EstimateLocalProperties(list)) : 0;
    EXPECT_EQ(ListBytesHash(list), frozen.list_bytes);
    EXPECT_EQ(EdgeArrayHash(sub.graph), frozen.subgraph_edges);
    EXPECT_EQ(estimates, frozen.estimates);
  }
}

}  // namespace
}  // namespace sgr
