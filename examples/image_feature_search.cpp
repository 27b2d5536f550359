// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Domain example: similarity search over high-dimensional image features —
// the SS-tree's original habitat (paper Sections 1 and 5.1: "similarity
// search queries in high-dimensional space, ... image and video retrieval").
//
// Each catalog image is a 16-d texture-feature vector with an uncertainty
// radius from feature-extraction noise; the probe is a query image whose
// features were extracted at lower resolution (bigger radius). The example
// runs the dominance-pruned kNN with every correct criterion and reports
// candidate-set sizes and dominance-check counts, then uses the raw
// dominance operator to rank two candidates directly.

#include <cstdio>

#include "data/datasets.h"
#include "data/generator.h"
#include "dominance/criterion.h"
#include "index/ss_tree.h"
#include "query/knn.h"

int main() {
  using namespace hyperdom;

  // The Texture stand-in (68,040 x 16), capped for a snappy example.
  const auto features = LoadRealStandIn(RealDataset::kTexture, 30'000);
  const auto catalog = MakeUncertain(features, /*radius_mean=*/5.0,
                                     /*sigma_ratio=*/0.25, /*seed=*/7);
  SsTree tree(/*dim=*/16);
  if (Status st = tree.BulkLoadStr(catalog); !st.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu feature vectors (16-d), SS-tree height %zu\n",
              tree.size(), tree.Height());

  // Probe: a catalog image re-extracted with extra noise.
  const Hypersphere probe(catalog[123].center(), 12.0);

  std::printf("\n%-10s %12s %18s %16s\n", "criterion", "candidates",
              "dominance checks", "entries accessed");
  for (CriterionKind kind :
       {CriterionKind::kHyperbola, CriterionKind::kMinMax, CriterionKind::kMbr,
        CriterionKind::kGp}) {
    const auto criterion = MakeCriterion(kind);
    KnnOptions options;
    options.k = 10;
    KnnSearcher searcher(criterion.get(), options);
    const KnnResult result = searcher.Search(tree, probe);
    std::printf("%-10s %12zu %18llu %16llu\n",
                std::string(criterion->name()).c_str(), result.answers.size(),
                static_cast<unsigned long long>(result.stats.dominance_checks),
                static_cast<unsigned long long>(
                    result.stats.entries_accessed));
  }

  // Direct use of the operator: is candidate A certainly a better match
  // than candidate B for this probe, despite all the uncertainty?
  const auto exact = MakeCriterion(CriterionKind::kHyperbola);
  const Hypersphere& a = catalog[123];
  const Hypersphere& b = catalog[4567];
  std::printf("\nDom(A, B, probe) = %s  (A certainly closer than B: %s)\n",
              exact->Dominates(a, b, probe) ? "true" : "false",
              exact->Dominates(a, b, probe) ? "yes — B can be discarded"
                                            : "no — keep both");
  return 0;
}
