// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Regenerates **Figure 14** (a: query time, b: precision): effect of k in
// {1, 10, 20, 30} for kNN queries (synthetic, N = 100k, d = 4, mu = 10).

#include "bench_util.h"
#include "data/generator.h"

int main(int argc, char** argv) {
  using namespace hyperdom;
  bench::PrintHeader("Figure 14: kNN — effect of k",
                     "N = 100k, d = 4, mu = 10, SS-tree");
  bench::Reporter reporter(argc, argv, "fig14_knn_k");

  SyntheticSpec spec;
  spec.n = reporter.Scaled(100'000, 5'000);
  spec.dim = 4;
  spec.radius_mean = 10.0;
  // Tenfold coordinate scale; see fig13_knn_radius.cc and EXPERIMENTS.md.
  spec.center_mean = 1000.0;
  spec.center_stddev = 250.0;
  spec.seed = 14'000;
  const auto data = GenerateSynthetic(spec);

  for (size_t k : {1, 10, 20, 30}) {
    KnnExperimentConfig config;
    config.k = k;
    config.num_queries = reporter.Scaled(100, 2);
    config.seed = 14'100;
    config.threads = reporter.threads();
    const auto rows = RunKnnExperiment(data, config);
    char label[64];
    std::snprintf(label, sizeof(label), "k = %zu", k);
    reporter.KnnSweep(label, rows);
  }
  std::printf(
      "\nExpected shape (paper Fig. 14): query time grows with k (a longer\n"
      "best-known list is maintained); k has no clear effect on precision.\n");
  return reporter.Finish();
}
