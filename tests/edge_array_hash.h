#ifndef SGR_TESTS_EDGE_ARRAY_HASH_H_
#define SGR_TESTS_EDGE_ARRAY_HASH_H_

#include <cstdint>

#include "graph/graph.h"

namespace sgr {

/// FNV-1a-64 over the node count and the edge array in EdgeId order.
inline std::uint64_t EdgeArrayHash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.NumNodes());
  for (const Edge& e : g.edges()) {
    mix(e.u);
    mix(e.v);
  }
  return h;
}

}  // namespace sgr

#endif  // SGR_TESTS_EDGE_ARRAY_HASH_H_
