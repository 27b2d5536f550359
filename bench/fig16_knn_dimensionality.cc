// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Regenerates **Figure 16** (a: query time, b: precision): effect of the
// dimensionality d in {2, 4, 6, 8, 10} for kNN queries (synthetic,
// N = 100k, mu = 10, k = 10).

#include "bench_util.h"
#include "data/generator.h"

int main(int argc, char** argv) {
  using namespace hyperdom;
  bench::PrintHeader("Figure 16: kNN — effect of dimensionality d",
                     "N = 100k, mu = 10, k = 10, SS-tree");
  bench::Reporter reporter(argc, argv, "fig16_knn_dimensionality");

  for (size_t d : {2, 4, 6, 8, 10}) {
    SyntheticSpec spec;
    spec.n = reporter.Scaled(100'000, 5'000);
    spec.dim = d;
    spec.radius_mean = 10.0;
    // Tenfold coordinate scale; see fig13_knn_radius.cc and EXPERIMENTS.md.
    spec.center_mean = 1000.0;
    spec.center_stddev = 250.0;
    spec.seed = 16'000 + d;
    const auto data = GenerateSynthetic(spec);
    KnnExperimentConfig config;
    config.k = 10;
    config.num_queries = reporter.Scaled(100, 2);
    config.seed = 16'100;
    config.threads = reporter.threads();
    const auto rows = RunKnnExperiment(data, config);
    char label[64];
    std::snprintf(label, sizeof(label), "d = %zu", d);
    reporter.KnnSweep(label, rows);
  }
  std::printf(
      "\nExpected shape (paper Fig. 16): query time grows with d; precision\n"
      "is not significantly affected by d.\n");
  return reporter.Finish();
}
