// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Columnar (SoA) sphere storage: one flat, 64-byte-aligned, d-strided
// coordinate arena plus a parallel radii array. Spheres live in the store
// as rows addressed by a slot; indexes keep lightweight StoredEntry{slot,
// id} payloads instead of owned Hypersphere copies, and queries resolve
// slots to non-owning SphereView/EntryView handles over contiguous memory.
//
// Why: `Point = std::vector<double>` gives every sphere its own heap
// allocation, so a 10k-sphere workload is 10k+ scattered allocations and
// every O(d) kernel pays a pointer chase before its first multiply. The
// arena removes both: coordinates of consecutive slots are contiguous
// (cache- and prefetcher-friendly, SIMD-ready), and resolving a slot is
// pointer arithmetic. Slot order is the order rows were added, so the
// owner decides what is contiguous: the SS-tree (SsTree::BulkLoadStr)
// adds each leaf's rows together, so a leaf scan reads one run of rows,
// while the mutable store's delta keeps insertion order.
// The span kernels in geometry/ run bit-identically on store rows and on
// Hypersphere vectors, so the two layouts are interchangeable at the
// arithmetic level (see docs/performance.md, "Data layout").

#ifndef HYPERDOM_STORAGE_SPHERE_STORE_H_
#define HYPERDOM_STORAGE_SPHERE_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/status.h"
#include "geometry/hypersphere.h"

namespace hyperdom {

/// \brief The columnar index payload: a slot in a SphereStore plus the
/// caller-supplied id. 12 bytes instead of an owned Hypersphere.
struct StoredEntry {
  uint32_t slot = 0;
  uint64_t id = 0;
};

/// \brief A resolved StoredEntry: the sphere view plus the id. Views stay
/// valid while the backing store is alive and not mutated — traversals over
/// a const index hold them freely.
struct EntryView {
  SphereView sphere;
  uint64_t id = 0;
  uint32_t slot = 0;
};

/// \brief Arena-backed SoA sphere storage.
///
/// Append-only (plus Clear): slots are stable for the lifetime of the
/// store, which is what lets indexes reference spheres by slot across
/// splits, reinserts, and serialization. Thread-compatible: safe for
/// concurrent reads (the batch engine's worker threads resolve views
/// concurrently); mutation requires external exclusion.
///
/// Single-writer/multi-reader appends: once Reserve(n) has sized the
/// arena, Add() never reallocates until `n` is exceeded, so rows already
/// written stay at stable addresses. The mutability layer
/// (index/mutable_ss_tree.h) exploits this — one writer appends into a
/// pre-reserved store while readers resolve rows below a published-size
/// watermark carried by the store version, never reading a row the
/// watermark does not cover.
class SphereStore {
 public:
  SphereStore() = default;
  /// Creates an empty store for `dim`-dimensional spheres.
  explicit SphereStore(size_t dim) : dim_(dim) {}

  SphereStore(const SphereStore& other);
  SphereStore& operator=(const SphereStore& other);
  SphereStore(SphereStore&& other) noexcept;
  SphereStore& operator=(SphereStore&& other) noexcept;
  ~SphereStore();

  size_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Spheres the arena can hold before the next Add() reallocates (and
  /// invalidates row addresses). See the single-writer note above.
  size_t capacity() const { return capacity_; }

  /// Appends a sphere; returns its slot. A default-constructed store
  /// adopts the first sphere's dimensionality. Dimension mismatches are
  /// asserted in debug builds (callers validate at the API boundary).
  uint32_t Add(const Hypersphere& s);

  /// Appends from a raw coordinate span; returns the slot.
  uint32_t Add(const double* center, size_t dim, double radius);

  /// Row base pointer of `slot`'s coordinates (d contiguous doubles).
  const double* center(uint32_t slot) const { return coords_ + slot * dim_; }
  double radius(uint32_t slot) const { return radii_[slot]; }

  /// Base of the contiguous radii column (size() doubles), parallel to the
  /// coordinate arena — the second operand of the batched span kernels
  /// (geometry/point.h). Invalidated by Add()/Reserve() like center().
  const double* radii_data() const { return radii_.data(); }

  /// Non-owning view of the sphere in `slot`.
  SphereView view(uint32_t slot) const {
    return SphereView{coords_ + slot * dim_, dim_, radii_[slot]};
  }

  /// Resolves an index payload to a view.
  EntryView Resolve(const StoredEntry& e) const {
    return EntryView{view(e.slot), e.id, e.slot};
  }

  /// Materializes an owning Hypersphere (copies the row).
  Hypersphere Materialize(uint32_t slot) const;

  /// Pre-sizes the arena for `n` spheres. Throws std::bad_alloc, leaving
  /// the store unchanged, when the arena for `n` rows cannot be allocated
  /// or its byte size overflows size_t.
  void Reserve(size_t n);

  /// Drops every sphere (keeps dim and capacity).
  void Clear() { size_ = 0; radii_.clear(); }

  /// \brief Writes `u64 dim | u64 size | per slot: f64 center[dim], f64
  /// radius` to the stream (host representation, matching the index
  /// snapshot formats that embed it).
  Status SerializeTo(std::ostream& out) const;

  /// \brief Reads the SerializeTo layout, replacing `*out`'s contents.
  /// Rejects non-finite coordinates, bad radii, truncation and implausible
  /// sizes with Corruption. The arena grows only with the rows actually
  /// read, so a header declaring more rows than follow cannot drive an
  /// allocation.
  static Status DeserializeFrom(std::istream& in, SphereStore* out);

 private:
  void GrowTo(size_t min_spheres);

  size_t dim_ = 0;
  size_t size_ = 0;
  size_t capacity_ = 0;  // in spheres
  double* coords_ = nullptr;  // 64-byte aligned, size_ * dim_ doubles used
  std::vector<double> radii_;
};

}  // namespace hyperdom

#endif  // HYPERDOM_STORAGE_SPHERE_STORE_H_
