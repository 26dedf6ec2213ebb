// estimate_properties: re-weighted random walk estimation WITHOUT
// restoration (the Section III-E workflow on its own).
//
// Useful when you only need local statistics of a hidden graph — number of
// users, average friend count, degree distribution, clustering — and want
// them unbiased despite the walk's preference for popular users. Also
// demonstrates the estimator's convergence: the same quantities are
// estimated at several query budgets against the known ground truth.
//
// Usage: ./build/examples/estimate_properties [edge_list.txt]

#include <cmath>
#include <iostream>

#include "dk/dk_extract.h"
#include "estimation/estimators.h"
#include "exp/table_printer.h"
#include "graph/components.h"
#include "graph/edge_list_reader.h"
#include "graph/generators.h"
#include "sampling/random_walk.h"

int main(int argc, char** argv) {
  using namespace sgr;

  Rng rng(7);
  const CsrGraph g = PreprocessDataset(
      argc > 1 ? ReadEdgeListCsr(argv[1])
               : CsrGraph(GenerateSocialGraph(5000, 5, 0.4, 0.4, rng)));

  // Ground truth (available here because the graph is local; in a real
  // crawl you would only have the estimates).
  const double true_n = static_cast<double>(g.NumNodes());
  const double true_k = g.AverageDegree();
  const std::vector<double> true_c = ExtractDegreeDependentClustering(g);
  double true_c_mass = 0.0;
  for (double c : true_c) true_c_mass += c;

  std::cout << "hidden graph: n = " << g.NumNodes()
            << ", m = " << g.NumEdges() << "\n\n";

  TablePrinter table(std::cout,
                     {"% queried", "n-hat (err)", "k-hat (err)",
                      "P(k) L1", "c(k) L1"});
  for (double fraction : {0.01, 0.02, 0.05, 0.10, 0.20}) {
    QueryOracle oracle(g);
    const auto budget = static_cast<std::size_t>(
        fraction * static_cast<double>(g.NumNodes()));
    const SamplingList walk = RandomWalkSample(
        oracle, static_cast<NodeId>(rng.NextIndex(g.NumNodes())),
        std::max<std::size_t>(budget, 4), rng);
    const LocalEstimates est = EstimateLocalProperties(walk);

    // Degree-distribution L1 against the truth.
    const DegreeVector dv = ExtractDegreeVector(g);
    double pk_l1 = 0.0;
    const std::size_t kmax = std::max(dv.size(), est.degree_dist.size());
    for (std::size_t k = 0; k < kmax; ++k) {
      const double truth =
          k < dv.size() ? static_cast<double>(dv[k]) / true_n : 0.0;
      const double guess =
          k < est.degree_dist.size() ? est.degree_dist[k] : 0.0;
      pk_l1 += std::abs(truth - guess);
    }
    // Clustering L1 (normalized by the true mass).
    double ck_l1 = 0.0;
    const std::size_t cmax = std::max(true_c.size(), est.clustering.size());
    for (std::size_t k = 0; k < cmax; ++k) {
      const double truth = k < true_c.size() ? true_c[k] : 0.0;
      const double guess = k < est.clustering.size() ? est.clustering[k]
                                                     : 0.0;
      ck_l1 += std::abs(truth - guess);
    }
    ck_l1 = true_c_mass > 0 ? ck_l1 / true_c_mass : ck_l1;

    table.AddRow(
        {TablePrinter::Fixed(100.0 * fraction, 0),
         TablePrinter::Fixed(est.num_nodes, 0) + " (" +
             TablePrinter::Fixed(
                 100.0 * std::abs(est.num_nodes - true_n) / true_n, 1) +
             "%)",
         TablePrinter::Fixed(est.average_degree, 2) + " (" +
             TablePrinter::Fixed(
                 100.0 * std::abs(est.average_degree - true_k) / true_k,
                 1) +
             "%)",
         TablePrinter::Fixed(pk_l1), TablePrinter::Fixed(ck_l1)});
  }
  table.Print();
  std::cout << "\nn-hat, k-hat and the degree-distribution error shrink as "
               "the budget grows: the re-weighted estimators are "
               "consistent despite the walk's bias toward high-degree "
               "users. The clustering column stays noisy — each degree "
               "class is estimated separately and sparse high-degree "
               "classes dominate the summed error (the same effect caps "
               "the c(k) accuracy of the restoration methods in the "
               "paper's Table II).\n";
  return 0;
}
