// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Span-vs-legacy kernel microbenchmark: the layout half of the columnar
// refactor's claim. Both sides execute the SAME span arithmetic (the
// Hypersphere overloads delegate to it), so any gap measured here is pure
// memory layout: a SphereStore lookup is pointer arithmetic into one
// 64-byte-aligned arena, while the legacy AoS side chases one heap
// pointer per sphere into blocks scattered by interleaved allocations —
// exactly the fragmentation an index build produces.
//
// The primary access pattern is SHUFFLED slot order: that is how the
// traversal hot paths touch spheres (BestKnownList refinement, RkNN
// candidate verification, leaf visits driven by the priority queue), and
// it is where the dependent pointer chase hurts most — the AoS side takes
// two serialized cache misses per sphere where the arena takes one. A
// sequential-sweep reference row is included per dimension; at high d a
// linear scan goes bandwidth-bound and the layouts converge, which the
// row makes visible rather than hiding. Sweeps d in {2, 10, 50, 100}
// over MaxDist / MinDist / SquaredDist and emits
// bench/results/BENCH_kernels.json (hyperdom-bench-v1); pass
// --headline-out=FILE to regenerate the repo-root copy in the same run.
//
// A second sweep family ("batched d=..") measures the SIMD + batching
// tentpole on leaf-scan-shaped work: a ~L2-resident pool of contiguous
// rows visited as shuffled 64-row blocks (the fan-out of a tree leaf).
// Three comparisons per dimension, all computing bit-identical values:
//   * scalar-batched vs dispatched-batched (pure instruction-set effect;
//     the scalar side is geometry/scalar_kernels.cc, compiled with
//     vectorization off even under -march=native),
//   * serial one-at-a-time view kernels vs the fused dispatched batch
//     (call-scheduling effect: one distance per row instead of two, plus
//     amortized per-call overhead),
//   * serial Hyperbola DecideVerdict loop vs DecideVerdictBatch (tier-1
//     batching: the query-to-focus distance hoisted per block).
// The same family times the two child bounds an SS-tree visit computes
// per child: "mindist" (BatchedMinDistSpan, the sphere) and "boxmindist"
// (BatchedBoxMinDistSpan, the box around each row's sphere, 2d doubles a
// row), scalar-batched and dispatched.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "eval/table_printer.h"
#include "geometry/hypersphere.h"
#include "geometry/point.h"
#include "storage/sphere_store.h"

namespace {

using namespace hyperdom;

// Defeats dead-code elimination without adding a branch to the timed loop.
volatile double g_sink = 0.0;

Hypersphere RandomSphereAt(Rng* rng, size_t dim) {
  Point c(dim);
  for (size_t i = 0; i < dim; ++i) c[i] = rng->Uniform(-100.0, 100.0);
  return Hypersphere(std::move(c), rng->Uniform(0.0, 5.0));
}

// The legacy AoS fixture: one heap block per center, deliberately
// interleaved with ballast allocations (kept alive) the way tree nodes and
// routing entries interleave with data spheres during an index build. A
// freshly looped `push_back` of vectors lands suspiciously contiguous on a
// quiet heap; real indexes are never that lucky.
struct LegacySet {
  std::vector<Hypersphere> spheres;
  std::vector<std::vector<double>> ballast;
};

LegacySet BuildLegacy(uint64_t seed, size_t n, size_t dim) {
  LegacySet set;
  set.spheres.reserve(n);
  set.ballast.reserve(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    set.spheres.push_back(RandomSphereAt(&rng, dim));
    set.ballast.emplace_back(16 + i % 113, 1.0);
  }
  return set;
}

SphereStore BuildStore(const LegacySet& set, size_t dim) {
  SphereStore store(dim);
  store.Reserve(set.spheres.size());
  for (const Hypersphere& s : set.spheres) store.Add(s);
  return store;
}

// Fisher-Yates with the repo Rng, so the access order is seeded and
// reproducible across runs and machines.
std::vector<uint32_t> ShuffledOrder(uint64_t seed, size_t n) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(seed);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.UniformU64(i + 1)]);
  }
  return order;
}

// Times `body` (one full pass over n spheres) `reps` times and returns the
// best-of nanoseconds per sphere — min, not mean, so a stray scheduling
// hiccup can't masquerade as a layout effect.
template <typename F>
double BestNanosPerOp(size_t reps, size_t n, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    g_sink = g_sink + body();
    const auto t1 = std::chrono::steady_clock::now();
    const double nanos = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    best = std::min(best, nanos / static_cast<double>(n));
  }
  return best;
}

struct KernelRow {
  const char* kernel;
  const char* order;
  double legacy_ns = 0.0;
  double span_ns = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Kernel microbench: columnar store vs legacy AoS",
      "same span arithmetic both sides; the gap is memory layout.\n"
      "shuffled = candidate-evaluation order (the traversal-hot pattern),\n"
      "sequential = full linear sweep (bandwidth-bound at high d)");
  bench::Reporter reporter(argc, argv, "kernel_microbench");

  const size_t reps = reporter.Scaled(9, 3);
  bool layout_win_at_high_dim = true;

  for (size_t dim : {size_t{2}, size_t{10}, size_t{50}, size_t{100}}) {
    // ~64 MB of coordinates per side at d >= 10 so the sweep runs out of
    // cache; capped at 1M spheres so the d = 2 AoS build stays sane.
    const size_t full_n = std::min(size_t{1'000'000}, 8'000'000 / dim);
    const size_t n = reporter.Scaled(full_n, full_n / 50);

    const LegacySet legacy = BuildLegacy(9100 + dim, n, dim);
    const SphereStore store = BuildStore(legacy, dim);
    const std::vector<uint32_t> order = ShuffledOrder(9300 + dim, n);
    Rng qrng(9200 + dim);
    const Hypersphere query = RandomSphereAt(&qrng, dim);
    const SphereView qview = query.view();
    const Point& qcenter = query.center();
    const double* qc = qcenter.data();

    KernelRow rows[4] = {{"maxdist", "shuffled"},
                         {"mindist", "shuffled"},
                         {"sqdist", "shuffled"},
                         {"maxdist", "sequential"}};

    rows[0].legacy_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t j : order) acc += MaxDist(legacy.spheres[j], query);
      return acc;
    });
    rows[0].span_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t j : order) acc += MaxDist(store.view(j), qview);
      return acc;
    });

    rows[1].legacy_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t j : order) acc += MinDist(legacy.spheres[j], query);
      return acc;
    });
    rows[1].span_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t j : order) acc += MinDist(store.view(j), qview);
      return acc;
    });

    rows[2].legacy_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t j : order) {
        acc += SquaredDist(legacy.spheres[j].center(), qcenter);
      }
      return acc;
    });
    rows[2].span_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t j : order) {
        acc += SquaredDistSpan(store.center(j), qc, dim);
      }
      return acc;
    });

    rows[3].legacy_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (const Hypersphere& s : legacy.spheres) acc += MaxDist(s, query);
      return acc;
    });
    rows[3].span_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      const uint32_t size = static_cast<uint32_t>(store.size());
      for (uint32_t slot = 0; slot < size; ++slot) {
        acc += MaxDist(store.view(slot), qview);
      }
      return acc;
    });

    char label[32];
    std::snprintf(label, sizeof(label), "d=%zu", dim);
    std::printf("\n-- %s (N = %zu spheres/side) --\n", label, n);
    TablePrinter table(
        {"kernel", "order", "legacy ns/op", "span ns/op", "speedup"});
    std::vector<std::string> json_rows;
    for (KernelRow& row : rows) {
      row.speedup =
          row.span_ns > 0.0 ? row.legacy_ns / row.span_ns : 0.0;
      char legacy_s[32], span_s[32], speedup_s[32];
      std::snprintf(legacy_s, sizeof(legacy_s), "%.2f", row.legacy_ns);
      std::snprintf(span_s, sizeof(span_s), "%.2f", row.span_ns);
      std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", row.speedup);
      table.AddRow({row.kernel, row.order, legacy_s, span_s, speedup_s});

      json_rows.push_back(
          std::string("{\"kernel\": \"") + row.kernel + "\", \"order\": \"" +
          row.order + "\", \"dim\": " + std::to_string(dim) +
          ", \"n\": " + std::to_string(n) +
          ", \"legacy_ns_per_op\": " + FormatDouble(row.legacy_ns) +
          ", \"span_ns_per_op\": " + FormatDouble(row.span_ns) +
          ", \"speedup\": " + FormatDouble(row.speedup) + "}");
      // The refactor's contract covers the traversal-order rows.
      if (dim >= 50 && row.order[0] == 's' && row.order[1] == 'h' &&
          row.speedup < 1.3) {
        layout_win_at_high_dim = false;
      }
    }
    table.Print();
    reporter.RawSweep(label, json_rows);
  }

  // -- Batched / SIMD sweep family ----------------------------------------
  // Leaf-scan shape: contiguous 64-row blocks (a tree leaf's fan-out)
  // visited in shuffled block order, pool sized ~1.5 MB of coordinates so
  // it lives in L2 — the regime where the kernels are compute-bound and
  // an instruction-set speedup is honestly attributable to SIMD rather
  // than hidden behind memory stalls.
  constexpr size_t kBlock = 64;
  bool simd_win_at_high_dim = true;
  const bool avx2 = std::string(KernelDispatchName()) == "avx2";

  for (size_t dim : {size_t{2}, size_t{10}, size_t{50}, size_t{100}}) {
    const size_t full_blocks =
        std::max(size_t{8}, (196'608 / dim) / kBlock);  // ~1.5 MB of rows
    const size_t n_blocks =
        reporter.Scaled(full_blocks, std::max(size_t{4}, full_blocks / 32));
    const size_t n = n_blocks * kBlock;

    const LegacySet pool_src = BuildLegacy(9500 + dim, n, dim);
    const SphereStore store = BuildStore(pool_src, dim);
    const std::vector<uint32_t> block_order = ShuffledOrder(9600 + dim,
                                                            n_blocks);
    Rng qrng(9700 + dim);
    const Hypersphere query = RandomSphereAt(&qrng, dim);
    const SphereView qview = query.view();
    const double* qc = query.center().data();
    const double qr = query.radius();
    const double* radii = store.radii_data();

    std::vector<double> min_out(kBlock), max_out(kBlock);
    std::vector<double> boxes(n * 2 * dim);
    for (size_t j = 0; j < n; ++j) {
      for (size_t d = 0; d < dim; ++d) {
        boxes[j * 2 * dim + d] = store.center(j)[d] - radii[j];
        boxes[j * 2 * dim + dim + d] = store.center(j)[d] + radii[j];
      }
    }

    // Serial one-at-a-time baseline: the pre-batching leaf-scan cost — a
    // MaxDist call and a MinDist call per row, two center distances.
    const double serial_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t b : block_order) {
        for (uint32_t j = b * kBlock; j < (b + 1) * kBlock; ++j) {
          const SphereView v = store.view(j);
          acc += MaxDist(v, qview) + MinDist(v, qview);
        }
      }
      return acc;
    });
    // Always-scalar batched (vectorization compiled out of its TU).
    const double scalar_batched_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t b : block_order) {
        scalar_ref::BatchedMinMaxDistSpan(store.center(b * kBlock),
                                          radii + b * kBlock, dim, kBlock, qc,
                                          qr, min_out.data(), max_out.data());
        acc += min_out[0] + max_out[kBlock - 1];
      }
      return acc;
    });
    // Dispatched batched: AVX2 under HYPERDOM_NATIVE, scalar otherwise.
    const double simd_batched_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t b : block_order) {
        BatchedMinMaxDistSpan(store.center(b * kBlock), radii + b * kBlock,
                              dim, kBlock, qc, qr, min_out.data(),
                              max_out.data());
        acc += min_out[0] + max_out[kBlock - 1];
      }
      return acc;
    });

    // The two child bounds, sphere and box, scalar and dispatched.
    auto time_bound = [&](auto kernel) {
      return BestNanosPerOp(reps, n, [&] {
        double acc = 0.0;
        for (uint32_t b : block_order) {
          kernel(b * kBlock, min_out.data());
          acc += min_out[0] + min_out[kBlock - 1];
        }
        return acc;
      });
    };
    const double mindist_scalar_ns = time_bound([&](size_t row, double* out) {
      scalar_ref::BatchedMinDistSpan(store.center(row), radii + row, dim,
                                     kBlock, qc, qr, out);
    });
    const double mindist_ns = time_bound([&](size_t row, double* out) {
      BatchedMinDistSpan(store.center(row), radii + row, dim, kBlock, qc, qr,
                         out);
    });
    const double box_scalar_ns = time_bound([&](size_t row, double* out) {
      scalar_ref::BatchedBoxMinDistSpan(boxes.data() + row * 2 * dim, dim,
                                        kBlock, qc, qr, out);
    });
    const double box_ns = time_bound([&](size_t row, double* out) {
      BatchedBoxMinDistSpan(boxes.data() + row * 2 * dim, dim, kBlock, qc, qr,
                            out);
    });
    // kernel, scalar-batched ns, dispatched ns.
    const std::tuple<const char*, double, double> bound_rows[] = {
        {"mindist", mindist_scalar_ns, mindist_ns},
        {"boxmindist", box_scalar_ns, box_ns}};

    // Hyperbola tier-1: serial DecideVerdict loop vs DecideVerdictBatch,
    // one (Sa, Sq) pair per block of candidates.
    const HyperbolaCriterion hyperbola;
    const Hypersphere sa = RandomSphereAt(&qrng, dim);
    const SphereView sa_view = sa.view();
    std::vector<SphereView> cand(kBlock);
    std::vector<Verdict> verdicts(kBlock);
    const double hyp_serial_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t b : block_order) {
        for (uint32_t j = b * kBlock; j < (b + 1) * kBlock; ++j) {
          acc += hyperbola.DecideVerdict(sa_view, store.view(j), qview) ==
                         Verdict::kDominates
                     ? 1.0
                     : 0.0;
        }
      }
      return acc;
    });
    const double hyp_batched_ns = BestNanosPerOp(reps, n, [&] {
      double acc = 0.0;
      for (uint32_t b : block_order) {
        for (uint32_t j = 0; j < kBlock; ++j) {
          cand[j] = store.view(b * kBlock + j);
        }
        hyperbola.DecideVerdictBatch(sa_view, cand.data(), kBlock, qview,
                                     verdicts.data());
        acc += verdicts[0] == Verdict::kDominates ? 1.0 : 0.0;
      }
      return acc;
    });

    const double simd_speedup =
        simd_batched_ns > 0.0 ? scalar_batched_ns / simd_batched_ns : 0.0;
    const double batch_speedup =
        simd_batched_ns > 0.0 ? serial_ns / simd_batched_ns : 0.0;
    const double hyp_speedup =
        hyp_batched_ns > 0.0 ? hyp_serial_ns / hyp_batched_ns : 0.0;
    if (avx2 && dim >= 50 && simd_speedup < 2.0) {
      simd_win_at_high_dim = false;
    }

    char label[32];
    std::snprintf(label, sizeof(label), "batched d=%zu", dim);
    std::printf("\n-- %s (N = %zu rows, blocks of %zu, dispatch = %s) --\n",
                label, n, kBlock, KernelDispatchName());
    TablePrinter table({"kernel", "serial ns", "scalar batch ns",
                        "simd batch ns", "simd x", "batch x"});
    char s0[32], s1[32], s2[32], s3[32], s4[32];
    std::snprintf(s0, sizeof(s0), "%.2f", serial_ns);
    std::snprintf(s1, sizeof(s1), "%.2f", scalar_batched_ns);
    std::snprintf(s2, sizeof(s2), "%.2f", simd_batched_ns);
    std::snprintf(s3, sizeof(s3), "%.2fx", simd_speedup);
    std::snprintf(s4, sizeof(s4), "%.2fx", batch_speedup);
    table.AddRow({"minmax", s0, s1, s2, s3, s4});
    for (const auto& [kernel, scalar_ns, simd_ns] : bound_rows) {
      std::snprintf(s1, sizeof(s1), "%.2f", scalar_ns);
      std::snprintf(s2, sizeof(s2), "%.2f", simd_ns);
      std::snprintf(s3, sizeof(s3), "%.2fx",
                    simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0);
      table.AddRow({kernel, "-", s1, s2, s3, "-"});
    }
    std::snprintf(s0, sizeof(s0), "%.2f", hyp_serial_ns);
    std::snprintf(s2, sizeof(s2), "%.2f", hyp_batched_ns);
    std::snprintf(s3, sizeof(s3), "%.2fx", hyp_speedup);
    table.AddRow({"hyperbola_tier1", s0, "-", s2, "-", s3});
    table.Print();

    std::vector<std::string> json_rows;
    json_rows.push_back(
        std::string("{\"kernel\": \"minmax\", \"order\": \"shuffled_blocks\""
                    ", \"dim\": ") +
        std::to_string(dim) + ", \"n\": " + std::to_string(n) +
        ", \"block\": " + std::to_string(kBlock) +
        ", \"serial_ns_per_op\": " + FormatDouble(serial_ns) +
        ", \"scalar_batched_ns_per_op\": " + FormatDouble(scalar_batched_ns) +
        ", \"simd_batched_ns_per_op\": " + FormatDouble(simd_batched_ns) +
        ", \"simd_speedup\": " + FormatDouble(simd_speedup) +
        ", \"batch_speedup\": " + FormatDouble(batch_speedup) +
        ", \"dispatch\": \"" + KernelDispatchName() + "\"}");
    for (const auto& [kernel, scalar_ns, simd_ns] : bound_rows) {
      json_rows.push_back(
          std::string("{\"kernel\": \"") + kernel +
          "\", \"order\": \"shuffled_blocks\", \"dim\": " +
          std::to_string(dim) + ", \"n\": " + std::to_string(n) +
          ", \"block\": " + std::to_string(kBlock) +
          ", \"scalar_batched_ns_per_op\": " + FormatDouble(scalar_ns) +
          ", \"simd_batched_ns_per_op\": " + FormatDouble(simd_ns) +
          ", \"simd_speedup\": " +
          FormatDouble(simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0) +
          ", \"dispatch\": \"" + KernelDispatchName() + "\"}");
    }
    json_rows.push_back(
        std::string("{\"kernel\": \"hyperbola_tier1\", \"order\": "
                    "\"shuffled_blocks\", \"dim\": ") +
        std::to_string(dim) + ", \"n\": " + std::to_string(n) +
        ", \"block\": " + std::to_string(kBlock) +
        ", \"serial_ns_per_op\": " + FormatDouble(hyp_serial_ns) +
        ", \"batched_ns_per_op\": " + FormatDouble(hyp_batched_ns) +
        ", \"batch_speedup\": " + FormatDouble(hyp_speedup) +
        ", \"dispatch\": \"" + KernelDispatchName() + "\"}");
    reporter.RawSweep(label, json_rows);
  }

  std::printf(
      "\nExpected shape: in shuffled (traversal) order the legacy side pays\n"
      "two serialized cache misses per sphere — object, then the Point\n"
      "block behind its heap pointer — where the arena pays one; the\n"
      "contract the refactor claims is speedup >= 1.3x at d >= 50 there.\n"
      "Sequential sweeps converge at high d as both sides saturate memory\n"
      "bandwidth.\n");
  if (!layout_win_at_high_dim) {
    std::fprintf(stderr,
                 "warning: shuffled-order span kernels under 1.3x at "
                 "d >= 50 on this machine\n");
  }
  if (!simd_win_at_high_dim) {
    std::fprintf(stderr,
                 "warning: batched AVX2 kernels under 2x over the scalar "
                 "baseline at d >= 50 on this machine\n");
  }
  return reporter.Finish();
}
