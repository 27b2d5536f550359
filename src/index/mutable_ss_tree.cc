// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/mutable_ss_tree.h"

#include <bit>
#include <cassert>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperdom {

namespace {

// Publishes one mutation attempt under op=insert|remove and
// result=ok|conflict|error. Mirrors RecordSnapshotOp (index/snapshot.cc);
// mutations are per-row, but the registry lookup is one hash probe.
void RecordMutation(const char* op, const Status& status) {
  const char* result = status.ok() ? "ok"
                       : status.code() == StatusCode::kConflict ? "conflict"
                                                                : "error";
  auto& reg = obs::MetricsRegistry::Instance();
  std::string name(obs::kStoreMutations.name);
  name.append("{op=\"").append(op);
  name.append("\",result=\"").append(result).append("\"}");
  reg.GetCounter(std::move(name), obs::kStoreMutations.help)->Add(1);
}

/// Calls fn(entry) for every leaf entry of `tree`, depth first, last child
/// first.
template <typename Fn>
void ForEachLeafEntry(const SsTree& tree, const Fn& fn) {
  if (tree.root() == nullptr) return;
  std::vector<const SsTreeNode*> stack{tree.root()};
  while (!stack.empty()) {
    const SsTreeNode* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      for (const SsTreeEntry& entry : node->entries()) fn(entry);
    } else {
      for (const auto& child : node->children()) stack.push_back(child.get());
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal state

/// One fixed-capacity chunk of the delta log. The store is reserved at
/// construction and never grows past its capacity, so row addresses are
/// stable for the slab's lifetime — the property that lets readers
/// resolve rows while the writer appends (storage/sphere_store.h,
/// "Single-writer/multi-reader appends").
struct MutableSsTree::DeltaSlab {
  DeltaSlab(size_t dim, size_t cap)
      : store(dim),
        ids(new uint64_t[cap]),
        deleted_at(new std::atomic<uint64_t>[cap]()),
        capacity(cap) {
    store.Reserve(cap);
  }

  SphereStore store;
  std::unique_ptr<uint64_t[]> ids;
  /// 0 = live; otherwise the version at which the delete was published.
  std::unique_ptr<std::atomic<uint64_t>[]> deleted_at;
  const size_t capacity;
};

/// The append-only insert log: geometrically growing slabs (slab s holds
/// 256 << s rows), addressed by a flat row number. Shared by every
/// TreeVersion published since the last compaction; a version only
/// exposes rows below its `delta_rows` watermark.
struct MutableSsTree::DeltaLog {
  static constexpr size_t kSlabBase = 256;
  /// 24 slabs cover kSlabBase * (2^24 - 1) ~ 4.3e9 rows.
  static constexpr size_t kMaxSlabs = 24;

  explicit DeltaLog(size_t d) : dim(d) {}
  ~DeltaLog() {
    for (auto& slot : slabs) delete slot.load(std::memory_order_relaxed);
  }
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Flat row -> (slab, offset). Slab s starts at kSlabBase * (2^s - 1).
  static void Locate(uint64_t row, size_t* slab, size_t* offset) {
    const uint64_t t = row / kSlabBase + 1;
    *slab = static_cast<size_t>(std::bit_width(t)) - 1;
    *offset = static_cast<size_t>(row - kSlabBase * ((1ull << *slab) - 1));
  }

  // Writer side (serialized by MutableSsTree::writer_mu_).
  void Append(uint64_t row, const Hypersphere& sphere, uint64_t id) {
    size_t s = 0;
    size_t off = 0;
    Locate(row, &s, &off);
    assert(s < kMaxSlabs && "delta log full");
    DeltaSlab* slab = slabs[s].load(std::memory_order_relaxed);
    if (slab == nullptr) {
      slab = new DeltaSlab(dim, kSlabBase << s);
      slabs[s].store(slab, std::memory_order_release);
    }
    const uint32_t added = slab->store.Add(sphere);
    assert(added == off);
    (void)added;
    slab->ids[off] = id;
  }

  void SetDeletedAt(uint64_t row, uint64_t version) {
    size_t s = 0;
    size_t off = 0;
    Locate(row, &s, &off);
    slabs[s].load(std::memory_order_relaxed)->deleted_at[off].store(
        version, std::memory_order_release);
  }

  const size_t dim;
  std::atomic<DeltaSlab*> slabs[kMaxSlabs] = {};
};

/// An immutable bulk-loaded tree plus mutable per-slot tombstone words.
/// Everything except `deleted_at` is frozen after construction.
struct MutableSsTree::BaseState {
  explicit BaseState(size_t dim) : tree(dim) {}

  /// Bulk-loads the tree and sizes the per-slot arrays. The STR build
  /// stores rows in leaf order, not input order, so the slot map is read
  /// from the leaves.
  Status Build(const std::vector<Hypersphere>& spheres,
               const std::vector<uint64_t>& ids) {
    HYPERDOM_RETURN_NOT_OK(tree.BulkLoadStrWithIds(spheres, ids));
    slot_ids.resize(tree.store().size());
    ForEachLeafEntry(tree,
                     [this](const SsTreeEntry& e) { slot_ids[e.slot] = e.id; });
    if (!slot_ids.empty()) {
      deleted_at.reset(new std::atomic<uint64_t>[slot_ids.size()]());
    }
    return Status::OK();
  }

  uint64_t DeletedAt(uint32_t slot) const {
    return deleted_at == nullptr
               ? 0
               : deleted_at[slot].load(std::memory_order_acquire);
  }

  SsTree tree;
  /// slot -> external id (parallel to the tree's store; build-time fixed).
  std::vector<uint64_t> slot_ids;
  /// Per-slot tombstone version; null for an empty base.
  std::unique_ptr<std::atomic<uint64_t>[]> deleted_at;
};

/// One published state of the index. Immutable once published except for
/// the tombstone words, whose version-valued encoding keeps every
/// published version's visible set stable (see the header comment).
struct MutableSsTree::TreeVersion {
  uint64_t version = 0;
  std::shared_ptr<BaseState> base;
  std::shared_ptr<DeltaLog> delta;
  /// Rows of `delta` this version covers.
  uint64_t delta_rows = 0;
  uint64_t live = 0;
  uint64_t tombstones = 0;
};

namespace {

/// Row visibility at a pinned version: live, or deleted strictly after
/// the version was published.
inline bool VisibleAt(uint64_t deleted_at, uint64_t version) {
  return deleted_at == 0 || deleted_at > version;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReadView

MutableSsTree::ReadView::ReadView(const MutableSsTree* tree)
    // Member order matters: guard_ pins the epoch BEFORE head_ is loaded
    // (the reader half of the protocol in storage/epoch.h).
    : guard_(), v_(tree->head_.load(std::memory_order_seq_cst)) {}

uint64_t MutableSsTree::ReadView::version() const {
  return static_cast<const TreeVersion*>(v_)->version;
}

const SsTree& MutableSsTree::ReadView::tree() const {
  return static_cast<const TreeVersion*>(v_)->base->tree;
}

size_t MutableSsTree::ReadView::live_size() const {
  return static_cast<const TreeVersion*>(v_)->live;
}

size_t MutableSsTree::ReadView::delta_rows() const {
  return static_cast<const TreeVersion*>(v_)->delta_rows;
}

bool MutableSsTree::ReadView::VisibleBase(uint32_t slot) const {
  const auto* v = static_cast<const TreeVersion*>(v_);
  return VisibleAt(v->base->DeletedAt(slot), v->version);
}

void MutableSsTree::ReadView::ForEachExtraBlock(
    const std::function<void(const EntryView*, size_t)>& fn) const {
  const auto* v = static_cast<const TreeVersion*>(v_);
  // The slabs are walked directly: flat row numbers are consumed in order,
  // so a row costs no DeltaLog::Locate, only one slab-pointer load per
  // slab. Rows below the version's watermark were fully written before the
  // version was published. The gathered views stay valid while this view is
  // pinned (slab rows never move), so handing one block over the whole
  // delta is safe.
  std::vector<EntryView> rows;
  rows.reserve(static_cast<size_t>(v->delta_rows));
  uint64_t row = 0;
  for (size_t s = 0; s < DeltaLog::kMaxSlabs && row < v->delta_rows; ++s) {
    const DeltaSlab* slab =
        v->delta->slabs[s].load(std::memory_order_acquire);
    const uint64_t slab_rows = uint64_t{DeltaLog::kSlabBase} << s;
    for (uint64_t off = 0; off < slab_rows && row < v->delta_rows;
         ++off, ++row) {
      if (!VisibleAt(slab->deleted_at[off].load(std::memory_order_acquire),
                     v->version)) {
        continue;
      }
      rows.push_back(EntryView{slab->store.view(static_cast<uint32_t>(off)),
                               slab->ids[off], static_cast<uint32_t>(row)});
    }
  }
  fn(rows.data(), rows.size());
}

void MutableSsTree::ReadView::CollectLive(std::vector<Hypersphere>* spheres,
                                          std::vector<uint64_t>* ids) const {
  const auto* v = static_cast<const TreeVersion*>(v_);
  spheres->clear();
  ids->clear();
  spheres->reserve(v->live);
  ids->reserve(v->live);
  const SphereStore& store = v->base->tree.store();
  for (uint32_t slot = 0; slot < store.size(); ++slot) {
    if (!VisibleBase(slot)) continue;
    spheres->push_back(store.Materialize(slot));
    ids->push_back(v->base->slot_ids[slot]);
  }
  ForEachExtraBlock([&](const EntryView* rows, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      spheres->push_back(MaterializeSphere(rows[i].sphere));
      ids->push_back(rows[i].id);
    }
  });
}

MutableSsTree::ReadView MutableSsTree::Pin() const { return ReadView(this); }

// ---------------------------------------------------------------------------
// Construction / destruction

MutableSsTree::MutableSsTree(size_t dim, MutableSsTreeOptions options)
    : dim_(dim), options_(std::move(options)) {
  auto* v = new TreeVersion;
  v->base = std::make_shared<BaseState>(dim_);
  v->delta = std::make_shared<DeltaLog>(dim_);
  head_.store(v, std::memory_order_seq_cst);
}

MutableSsTree::~MutableSsTree() {
  // Readers must not outlive the tree (standard container contract), but
  // retired versions may still be inside a grace period — hand the head
  // to the epoch manager too and let it reclaim what it can now; the
  // manager frees any remainder at process exit.
  const TreeVersion* v = head_.exchange(nullptr, std::memory_order_seq_cst);
  EpochManager::Global().Retire(v);
  EpochManager::Global().ReclaimExpired();
}

// ---------------------------------------------------------------------------
// Writer paths

Status MutableSsTree::Insert(const Hypersphere& sphere, uint64_t id) {
  Status status;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    status = InsertLocked(sphere, id);
  }
  RecordMutation("insert", status);
  if (status.ok() && options_.auto_compact && ShouldAutoCompact()) {
    // Best-effort: a failed background compaction (injected fault, bad
    // allocation) leaves the current version serving; the next mutation
    // past the threshold retries.
    (void)Compact();
  }
  return status;
}

Status MutableSsTree::InsertLocked(const Hypersphere& sphere, uint64_t id) {
  if (frozen_.load(std::memory_order_relaxed)) {
    return Status::Conflict("store is frozen for drain");
  }
  if (compacting_) return Status::Conflict("compaction in progress");
  if (sphere.dim() != dim_) {
    return Status::InvalidArgument("sphere dimensionality " +
                                   std::to_string(sphere.dim()) +
                                   " does not match store dimensionality " +
                                   std::to_string(dim_));
  }
  if (locs_.count(id) != 0) {
    return Status::InvalidArgument("id " + std::to_string(id) +
                                   " is already live");
  }
  HYPERDOM_FAULT_POINT("store/insert");

  const TreeVersion* cur = head_.load(std::memory_order_relaxed);
  const uint64_t row = cur->delta_rows;
  cur->delta->Append(row, sphere, id);

  auto* next = new TreeVersion(*cur);
  next->version = cur->version + 1;
  next->delta_rows = row + 1;
  next->live = cur->live + 1;
  locs_[id] = Loc{true, row};
  PublishLocked(next);
  return Status::OK();
}

Status MutableSsTree::Remove(uint64_t id) {
  Status status;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    status = RemoveLocked(id);
  }
  RecordMutation("remove", status);
  if (status.ok() && options_.auto_compact && ShouldAutoCompact()) {
    (void)Compact();
  }
  return status;
}

Status MutableSsTree::RemoveLocked(uint64_t id) {
  if (frozen_.load(std::memory_order_relaxed)) {
    return Status::Conflict("store is frozen for drain");
  }
  if (compacting_) return Status::Conflict("compaction in progress");
  auto it = locs_.find(id);
  if (it == locs_.end()) {
    return Status::NotFound("id " + std::to_string(id) + " is not live");
  }

  const TreeVersion* cur = head_.load(std::memory_order_relaxed);
  const uint64_t death = cur->version + 1;
  // Publish order: the tombstone word first, then the version that makes
  // it effective. A reader pinned at cur->version may observe either
  // value of the word — both decode to "visible" at its version, so its
  // answer set is unaffected (version-valued tombstones, header comment).
  if (it->second.in_delta) {
    cur->delta->SetDeletedAt(it->second.index, death);
  } else {
    cur->base->deleted_at[it->second.index].store(death,
                                                  std::memory_order_release);
  }

  auto* next = new TreeVersion(*cur);
  next->version = death;
  next->live = cur->live - 1;
  next->tombstones = cur->tombstones + 1;
  locs_.erase(it);
  PublishLocked(next);
  return Status::OK();
}

Status MutableSsTree::Build(const std::vector<Hypersphere>& spheres,
                            const std::vector<uint64_t>& ids) {
  if (ids.size() != spheres.size()) {
    return Status::InvalidArgument("ids and spheres must have equal sizes");
  }
  std::unordered_set<uint64_t> seen;
  seen.reserve(ids.size());
  for (uint64_t id : ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("duplicate id " + std::to_string(id));
    }
  }

  std::lock_guard<std::mutex> lock(writer_mu_);
  if (frozen_.load(std::memory_order_relaxed)) {
    return Status::Conflict("store is frozen for drain");
  }
  if (compacting_) return Status::Conflict("compaction in progress");

  auto base = std::make_shared<BaseState>(dim_);
  HYPERDOM_RETURN_NOT_OK(base->Build(spheres, ids));
  ResetLocsLocked(*base);

  const TreeVersion* cur = head_.load(std::memory_order_relaxed);
  auto* next = new TreeVersion;
  next->version = cur->version + 1;
  next->base = std::move(base);
  next->delta = std::make_shared<DeltaLog>(dim_);
  next->live = ids.size();
  PublishLocked(next);
  return Status::OK();
}

Status MutableSsTree::BuildFromTree(const SsTree& tree) {
  if (tree.dim() != dim_) {
    return Status::InvalidArgument("tree dimensionality does not match store");
  }
  std::vector<Hypersphere> spheres;
  std::vector<uint64_t> ids;
  spheres.reserve(tree.size());
  ids.reserve(tree.size());
  ForEachLeafEntry(tree, [&](const SsTreeEntry& entry) {
    spheres.push_back(tree.store().Materialize(entry.slot));
    ids.push_back(entry.id);
  });
  return Build(spheres, ids);
}

Status MutableSsTree::Compact() {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (frozen_.load(std::memory_order_relaxed)) {
      return Status::Conflict("store is frozen for drain");
    }
    if (compacting_) {
      return Status::Conflict("compaction already in progress");
    }
    compacting_ = true;
  }

  HYPERDOM_SPAN(span, "store/compact");
  Stopwatch watch;
  Status status = CompactBuild();
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    compacting_ = false;
  }
  HYPERDOM_SPAN_ANNOTATE(span, "result", status.ok() ? "ok" : "error");
  HYPERDOM_COUNTER_INC_L(obs::kStoreCompactions, "result",
                         status.ok() ? "ok" : "error");
  HYPERDOM_HISTOGRAM_RECORD(obs::kStoreCompactionDuration, watch.ElapsedNs());
  return status;
}

Status MutableSsTree::CompactBuild() {
  // Runs with writer_mu_ RELEASED but compacting_ set: every mutation is
  // rejected with kConflict, so the head version and all visibility
  // words are stable and the gather below needs no synchronization
  // beyond the pin.
  std::vector<Hypersphere> spheres;
  std::vector<uint64_t> ids;
  {
    ReadView view = Pin();
    view.CollectLive(&spheres, &ids);
  }
  HYPERDOM_FAULT_POINT("store/compact");
  if (options_.compaction_hook) options_.compaction_hook();

  auto base = std::make_shared<BaseState>(dim_);
  HYPERDOM_RETURN_NOT_OK(base->Build(spheres, ids));

  auto* next = new TreeVersion;
  next->base = std::move(base);
  next->delta = std::make_shared<DeltaLog>(dim_);
  next->live = ids.size();

  std::lock_guard<std::mutex> lock(writer_mu_);
  const TreeVersion* cur = head_.load(std::memory_order_relaxed);
  next->version = cur->version + 1;
  ResetLocsLocked(*next->base);
  PublishLocked(next);
  return Status::OK();
}

void MutableSsTree::ResetLocsLocked(const BaseState& base) {
  locs_.clear();
  locs_.reserve(base.slot_ids.size());
  for (uint64_t slot = 0; slot < base.slot_ids.size(); ++slot) {
    locs_[base.slot_ids[slot]] = Loc{false, slot};
  }
}

void MutableSsTree::Freeze() {
  // Taken under the writer mutex so that when Freeze() returns, no
  // mutation is mid-flight — the drain guarantee the server relies on.
  std::lock_guard<std::mutex> lock(writer_mu_);
  frozen_.store(true, std::memory_order_relaxed);
}

void MutableSsTree::Thaw() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  frozen_.store(false, std::memory_order_relaxed);
}

bool MutableSsTree::frozen() const {
  return frozen_.load(std::memory_order_relaxed);
}

void MutableSsTree::PublishLocked(const TreeVersion* next) {
  const TreeVersion* old = head_.exchange(next, std::memory_order_seq_cst);
  EpochManager::Global().Retire(old);
  UpdateGauges(*next);
}

void MutableSsTree::UpdateGauges(const TreeVersion& v) {
  HYPERDOM_GAUGE_SET(obs::kStoreLive, static_cast<double>(v.live));
  HYPERDOM_GAUGE_SET(obs::kStoreTombstones, static_cast<double>(v.tombstones));
  HYPERDOM_GAUGE_SET(
      obs::kStoreEpochLag,
      static_cast<double>(EpochManager::Global().EpochLag()));
}

bool MutableSsTree::ShouldAutoCompact() const {
  ReadView view = Pin();
  const auto* v = static_cast<const TreeVersion*>(view.v_);
  if (v->delta_rows >= options_.compact_min_delta) return true;
  return v->tombstones > 0 &&
         static_cast<double>(v->tombstones) >=
             options_.compact_tombstone_ratio *
                 static_cast<double>(v->live + 1);
}

// ---------------------------------------------------------------------------
// Read-side accessors (each pins briefly for a consistent snapshot)

uint64_t MutableSsTree::version() const { return Pin().version(); }

size_t MutableSsTree::live_size() const { return Pin().live_size(); }

size_t MutableSsTree::tombstones() const {
  ReadView view = Pin();
  return static_cast<const TreeVersion*>(view.v_)->tombstones;
}

size_t MutableSsTree::delta_rows() const { return Pin().delta_rows(); }

}  // namespace hyperdom
