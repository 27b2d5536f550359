// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Domain example: kNN over uncertain GPS positions (the paper's motivating
// scenario from Section 1).
//
// A dispatch service tracks a fleet of couriers whose GPS fixes carry
// per-device error radii — each courier is a disk, not a point. A customer
// request also comes with an uncertain pickup region. "Which couriers could
// be among the 5 nearest?" is exactly Definition 2's kNN on hyperspheres:
// every courier that is not provably dominated by the 5th-best worst case
// must be kept as a possible answer.
//
// The example indexes the fleet in an SS-tree and contrasts the exact
// Hyperbola-pruned answer with the cheaper MinMax pruning (same recall,
// more false candidates to dispatch against).

#include <cstdio>

#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "dominance/minmax.h"
#include "index/ss_tree.h"
#include "query/knn.h"

int main() {
  using namespace hyperdom;

  // Synthesize a city: 20,000 couriers in a 30 km x 30 km grid (meters),
  // GPS error radius between 5 m (good fix) and 150 m (urban canyon).
  Rng rng(2026);
  std::vector<Hypersphere> fleet;
  fleet.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) {
    Point pos = {rng.Uniform(0.0, 30'000.0), rng.Uniform(0.0, 30'000.0)};
    fleet.emplace_back(std::move(pos), rng.Uniform(5.0, 150.0));
  }

  SsTree tree(/*dim=*/2);
  if (Status st = tree.BulkLoadStr(fleet); !st.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu couriers, SS-tree height %zu\n", tree.size(),
              tree.Height());

  // The pickup: somewhere inside a 200 m radius around the mall entrance.
  const Hypersphere pickup({15'200.0, 14'800.0}, 200.0);
  constexpr size_t kWanted = 5;

  const HyperbolaCriterion hyperbola;
  const MinMaxCriterion minmax;
  for (const DominanceCriterion* criterion :
       {static_cast<const DominanceCriterion*>(&hyperbola),
        static_cast<const DominanceCriterion*>(&minmax)}) {
    KnnOptions options;
    options.k = kWanted;
    options.strategy = SearchStrategy::kBestFirst;
    KnnSearcher searcher(criterion, options);
    const KnnResult result = searcher.Search(tree, pickup);
    std::printf(
        "\n%s pruning: %zu possible top-%zu couriers "
        "(%llu dominance checks, %llu entries accessed)\n",
        std::string(criterion->name()).c_str(), result.answers.size(),
        kWanted,
        static_cast<unsigned long long>(result.stats.dominance_checks),
        static_cast<unsigned long long>(result.stats.entries_accessed));
    size_t shown = 0;
    for (const auto& e : result.answers) {
      if (++shown > 5) {
        std::printf("  ...\n");
        break;
      }
      std::printf("  courier #%llu at (%.0f, %.0f) +/- %.0f m, worst-case "
                  "distance %.0f m\n",
                  static_cast<unsigned long long>(e.id), e.sphere.center()[0],
                  e.sphere.center()[1], e.sphere.radius(),
                  MaxDist(e.sphere, pickup));
    }
  }
  std::printf(
      "\nBoth answers contain every true candidate; the exact (Hyperbola)\n"
      "answer is the smaller one — fewer couriers to ping for confirmation.\n");
  return 0;
}
