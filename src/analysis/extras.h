#ifndef SGR_ANALYSIS_EXTRAS_H_
#define SGR_ANALYSIS_EXTRAS_H_

#include <cstddef>
#include <vector>

#include "graph/csr_graph.h"

namespace sgr {

/// Supplementary structural analyzers beyond the paper's 12 evaluation
/// properties. They support the examples, the Fig. 4 periphery analysis,
/// and downstream users assessing restoration quality from extra angles.

/// Newman's degree assortativity coefficient: the Pearson correlation of
/// the degrees at the two ends of an edge, in [-1, 1]. Social graphs are
/// typically assortative (r > 0). Returns 0 for graphs with fewer than 2
/// edges or zero degree variance.
double DegreeAssortativity(const CsrGraph& g);

/// k-core decomposition (Batagelj-Zaveršnik peeling): core[v] is the
/// largest k such that v belongs to a subgraph with minimum degree k.
/// Multi-edges count toward degrees; self-loops contribute 2 to their
/// node's degree and peel away with it.
std::vector<std::size_t> CoreNumbers(const CsrGraph& g);

/// Largest core number (the graph's degeneracy).
std::size_t Degeneracy(const CsrGraph& g);

/// Fraction of nodes with degree <= `threshold` — the "periphery mass"
/// proxy used by the Fig. 4 bench and visualization example.
double PeripheryShare(const CsrGraph& g, std::size_t threshold = 2);

/// Connected-component sizes, sorted descending (the first entry is the
/// giant component).
std::vector<std::size_t> ComponentSizes(const CsrGraph& g);

}  // namespace sgr

#endif  // SGR_ANALYSIS_EXTRAS_H_
