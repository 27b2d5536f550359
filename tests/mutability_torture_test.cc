// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// The mixed read/write torture test (run it under TSan with
// `ctest --preset tsan -L mut`): one writer applies a deterministic mutation script — inserts,
// removes, explicit compactions — while reader threads hammer kNN
// queries. Every concurrent answer is stamped with the store version it
// was pinned at; afterwards each (version, query) pair is replayed
// serially against that exact prefix of the mutation log and the
// concurrent answer must match bit for bit: the same id set, each sphere
// byte-identical to the one the script inserted.
//
// Versions map to prefixes exactly because every applied operation
// (insert, remove, compact) publishes exactly one version and
// auto-compaction is disabled: version v == "after the first v script
// operations".
//
// Sized for tier-1 by default (the smoke configuration); set
// HYPERDOM_TORTURE_FULL=1 for the long soak.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dominance/hyperbola.h"
#include "index/mutable_ss_tree.h"
#include "query/knn.h"
#include "query/mut_query.h"
#include "test_util.h"

namespace hyperdom {
namespace {

struct ScriptOp {
  enum Kind { kInsert, kRemove, kCompact } kind;
  uint64_t id = 0;      // insert/remove target
  Hypersphere sphere;   // insert payload
};

// A deterministic mutation script: mostly inserts, a quarter removes,
// a compaction every 64 ops. Remove targets are chosen among ids still
// live at that point in the script, so every op succeeds when applied.
std::vector<ScriptOp> MakeScript(size_t n_ops, uint64_t seed) {
  Rng rng(seed);
  std::vector<ScriptOp> script;
  script.reserve(n_ops);
  std::vector<uint64_t> live;
  uint64_t next_id = 0;
  for (size_t i = 0; i < n_ops; ++i) {
    if (i > 0 && i % 64 == 0) {
      script.push_back(ScriptOp{ScriptOp::kCompact, 0, Hypersphere()});
    } else if (!live.empty() && rng.UniformU64(4) == 0) {
      const size_t victim = rng.UniformU64(live.size());
      script.push_back(ScriptOp{ScriptOp::kRemove, live[victim],
                                Hypersphere()});
      live.erase(live.begin() + victim);
    } else {
      script.push_back(ScriptOp{ScriptOp::kInsert, next_id,
                                test::RandomSphere(&rng, 3, 6.0)});
      live.push_back(next_id);
      ++next_id;
    }
  }
  return script;
}

// The visible rows after the first `prefix` operations of the script.
void ReplayPrefix(const std::vector<ScriptOp>& script, size_t prefix,
                  std::vector<Hypersphere>* spheres,
                  std::vector<uint64_t>* ids) {
  std::map<uint64_t, Hypersphere> rows;
  for (size_t i = 0; i < prefix; ++i) {
    const ScriptOp& op = script[i];
    if (op.kind == ScriptOp::kInsert) {
      rows.emplace(op.id, op.sphere);
    } else if (op.kind == ScriptOp::kRemove) {
      rows.erase(op.id);
    }
  }
  for (const auto& [id, sphere] : rows) {
    ids->push_back(id);
    spheres->push_back(sphere);
  }
}

struct Observation {
  uint64_t version;
  size_t query;
  std::map<uint64_t, Hypersphere> answers;  // id -> sphere as returned
};

TEST(MutabilityTortureTest, ConcurrentKnnMatchesSerialPrefixReplay) {
  const bool full = std::getenv("HYPERDOM_TORTURE_FULL") != nullptr;
  const size_t n_ops = full ? 4000 : 500;
  const size_t n_readers = full ? 8 : 4;
  const size_t queries_per_reader = full ? 400 : 60;
  constexpr size_t kQueryPool = 16;
  constexpr size_t kK = 5;

  const std::vector<ScriptOp> script = MakeScript(n_ops, 0x70A7);
  Rng qrng(0x9E17);
  std::vector<Hypersphere> queries;
  for (size_t i = 0; i < kQueryPool; ++i) {
    queries.push_back(test::RandomSphere(&qrng, 3, 6.0));
  }

  MutableSsTreeOptions options;
  options.auto_compact = false;  // keep version == script prefix length
  MutableSsTree tree(3, options);
  HyperbolaCriterion exact;
  KnnOptions kopt;
  kopt.k = kK;

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observation>> observed(n_readers);

  std::vector<std::thread> readers;
  readers.reserve(n_readers);
  for (size_t r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0xBEEF + r);
      auto& mine = observed[r];
      mine.reserve(queries_per_reader);
      for (size_t q = 0; q < queries_per_reader; ++q) {
        const size_t qi = rng.UniformU64(kQueryPool);
        const auto answer = MutableKnn(tree, exact, kopt, queries[qi]);
        Observation obs;
        obs.version = answer.version;
        obs.query = qi;
        for (const auto& e : answer.result.answers) {
          obs.answers.emplace(e.id, e.sphere);
        }
        mine.push_back(std::move(obs));
        // Spread reads across the writer's lifetime instead of finishing
        // first.
        if (!writer_done.load(std::memory_order_relaxed) && q % 8 == 0) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::thread writer([&] {
    for (const ScriptOp& op : script) {
      Status applied;
      switch (op.kind) {
        case ScriptOp::kInsert:
          applied = tree.Insert(op.sphere, op.id);
          break;
        case ScriptOp::kRemove:
          applied = tree.Remove(op.id);
          break;
        case ScriptOp::kCompact:
          applied = tree.Compact();
          break;
      }
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }
    writer_done.store(true, std::memory_order_relaxed);
  });

  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_EQ(tree.version(), script.size());

  // Serial replay: every observed version must be a valid prefix, and the
  // concurrent answer must equal the serial linear scan of that prefix.
  std::map<std::pair<uint64_t, size_t>, const Observation*> unique;
  for (const auto& per_reader : observed) {
    for (const auto& obs : per_reader) {
      ASSERT_LE(obs.version, script.size());
      unique.emplace(std::make_pair(obs.version, obs.query), &obs);
    }
  }
  ASSERT_FALSE(unique.empty());
  size_t checked = 0;
  for (const auto& [key, obs] : unique) {
    std::vector<Hypersphere> live;
    std::vector<uint64_t> live_ids;
    ReplayPrefix(script, static_cast<size_t>(key.first), &live, &live_ids);
    const KnnResult serial =
        KnnLinearScan(live, queries[key.second], kK, exact);
    std::set<uint64_t> serial_ids;
    for (const auto& e : serial.answers) {
      serial_ids.insert(live_ids[e.id]);  // scan ids index into `live`
    }
    std::set<uint64_t> concurrent_ids;
    for (const auto& [id, sphere] : obs->answers) concurrent_ids.insert(id);
    ASSERT_EQ(concurrent_ids, serial_ids)
        << "version " << key.first << " query " << key.second;
    // Bit-identical payloads: each answered sphere is exactly the one the
    // script inserted (doubles round-trip untouched through the store).
    for (const auto& [id, sphere] : obs->answers) {
      const auto it = std::find(live_ids.begin(), live_ids.end(), id);
      ASSERT_NE(it, live_ids.end());
      EXPECT_EQ(sphere, live[it - live_ids.begin()])
          << "version " << key.first << " id " << id;
    }
    ++checked;
  }
  SUCCEED() << checked << " (version, query) pairs replayed";
}

// Writers contending with an explicit Freeze/Thaw drain cycle: mutations
// racing the freeze either apply or fail kConflict — never anything else
// — and the visible set stays consistent with whatever succeeded.
TEST(MutabilityTortureTest, FreezeRaceYieldsOnlyConflicts) {
  MutableSsTreeOptions options;
  options.auto_compact = false;
  MutableSsTree tree(2, options);
  std::atomic<uint64_t> applied{0};
  std::atomic<bool> stop{false};

  std::thread mutator([&] {
    uint64_t id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Status s =
          tree.Insert(Hypersphere({double(id % 97), 1.0}, 0.5), id);
      if (s.ok()) {
        applied.fetch_add(1, std::memory_order_relaxed);
      } else {
        ASSERT_EQ(s.code(), StatusCode::kConflict) << s.ToString();
      }
      ++id;
    }
  });
  for (int cycle = 0; cycle < 200; ++cycle) {
    tree.Freeze();
    const size_t frozen_live = tree.live_size();
    std::this_thread::yield();
    // Frozen means frozen: the live count cannot move until Thaw.
    ASSERT_EQ(tree.live_size(), frozen_live);
    tree.Thaw();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  EXPECT_EQ(tree.live_size(), applied.load());
}

}  // namespace
}  // namespace hyperdom
