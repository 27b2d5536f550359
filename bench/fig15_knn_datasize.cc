// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Regenerates **Figure 15** (a: query time, b: precision): effect of the
// data size N in {20k, 60k, 100k, 140k, 180k} for kNN queries (synthetic,
// d = 4, mu = 10, k = 10).

#include "bench_util.h"
#include "data/generator.h"

int main(int argc, char** argv) {
  using namespace hyperdom;
  bench::PrintHeader("Figure 15: kNN — effect of data size N",
                     "d = 4, mu = 10, k = 10, SS-tree");
  bench::Reporter reporter(argc, argv, "fig15_knn_datasize");

  for (size_t n : {20'000, 60'000, 100'000, 140'000, 180'000}) {
    SyntheticSpec spec;
    spec.n = reporter.Scaled(n, n / 20);
    spec.dim = 4;
    spec.radius_mean = 10.0;
    // Tenfold coordinate scale; see fig13_knn_radius.cc and EXPERIMENTS.md.
    spec.center_mean = 1000.0;
    spec.center_stddev = 250.0;
    spec.seed = 15'000;
    const auto data = GenerateSynthetic(spec);
    KnnExperimentConfig config;
    config.k = 10;
    config.num_queries = reporter.Scaled(100, 2);
    config.seed = 15'100;
    config.threads = reporter.threads();
    const auto rows = RunKnnExperiment(data, config);
    char label[64];
    std::snprintf(label, sizeof(label), "N = %zuk", n / 1000);
    reporter.KnnSweep(label, rows);
  }
  std::printf(
      "\nExpected shape (paper Fig. 15): query time grows with N; precision\n"
      "is not significantly affected by N.\n");
  return reporter.Finish();
}
