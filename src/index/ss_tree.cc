// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/ss_tree.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/fault.h"
#include "common/str_util.h"
#include "index/index_metrics.h"

namespace hyperdom {

namespace {

// Relative slack used by the invariant checker when verifying coverage;
// bounding radii are accumulated in floating point.
constexpr double kCoverageSlack = 1e-7;

// A box is 2 * dim doubles: its low corner, then its high corner.

// Sets `box` to the empty box, which covers nothing.
void ClearBox(double* box, size_t dim) {
  std::fill(box, box + dim, std::numeric_limits<double>::infinity());
  std::fill(box + dim, box + 2 * dim,
            -std::numeric_limits<double>::infinity());
}

// Grows `box` to cover `other`.
void CoverBox(double* box, const double* other, size_t dim) {
  for (size_t d = 0; d < dim; ++d) {
    box[d] = std::min(box[d], other[d]);
    box[dim + d] = std::max(box[dim + d], other[dim + d]);
  }
}

}  // namespace

SsTree::SsTree(size_t dim, SsTreeOptions options)
    : dim_(dim), options_(options),
      store_(std::make_shared<SphereStore>(dim)) {}

Status SsTree::ValidateOptions() const {
  if (options_.max_entries < 4) {
    return Status::InvalidArgument("SsTreeOptions.max_entries must be >= 4");
  }
  return Status::OK();
}

void SsTree::RebuildNodeStats(SsTreeNode* node, double* box) {
  // A leaf holds entries and no children; an internal node the reverse.
  node->count_ = node->entries_.size();
  for (const auto& child : node->children_) node->count_ += child->count_;
  RefreshBoundingSphere(node, box);
}

double* SsTree::NextChildBox(SsTreeNode* parent) const {
  std::vector<double>& packed = parent->child_bounds_;
  packed.resize(packed.size() + 2 * dim_);
  return packed.data() + packed.size() - 2 * dim_;
}

// The top-down bulk loader's inputs and working arrays. `keyed` pairs a
// cut key with an input index; the loader permutes the pairs and never
// copies a centre.
struct SsTree::BulkInput {
  BulkInput(const std::vector<Hypersphere>& spheres_in,
            const std::vector<uint64_t>& ids_in, size_t capacity, size_t dim)
      : spheres(spheres_in), ids(ids_in), leaf_capacity(capacity),
        keyed(spheres_in.size()), sum(dim), var(dim) {
    for (size_t i = 0; i < keyed.size(); ++i) keyed[i].second = i;
  }

  const std::vector<Hypersphere>& spheres;
  const std::vector<uint64_t>& ids;
  size_t leaf_capacity;
  std::vector<std::pair<double, size_t>> keyed;
  /// Per-dimension sums over the current cut's sample: of the offsets
  /// from its first row, then of their squares (turned into the sample
  /// size times the variance).
  std::vector<double> sum;
  std::vector<double> var;

  const double* center(size_t j) const {
    return spheres[keyed[j].second].center().data();
  }
};

std::unique_ptr<SsTreeNode> SsTree::BulkBuild(BulkInput* in, size_t lo,
                                              size_t hi, size_t span,
                                              double* box) {
  if (span == in->leaf_capacity) {
    // The leaf's rows go to the store now, so they are contiguous and in
    // leaf order.
    auto leaf = std::make_unique<SsTreeNode>(/*is_leaf=*/true);
    leaf->entries_.reserve(hi - lo);
    for (size_t j = lo; j < hi; ++j) {
      const size_t i = in->keyed[j].second;
      leaf->entries_.push_back(SsTreeEntry{
          store_->Add(in->spheres[i]),
          in->ids.empty() ? static_cast<uint64_t>(i) : in->ids[i]});
    }
    RebuildNodeStats(leaf.get(), box);
    return leaf;
  }
  const size_t child_span = span / in->leaf_capacity;
  const size_t groups = (hi - lo + child_span - 1) / child_span;
  auto node = std::make_unique<SsTreeNode>(/*is_leaf=*/false);
  node->children_.reserve(groups);
  node->child_bounds_.reserve(groups * (3 * dim_ + 1));
  BulkSplit(in, lo, hi, groups, child_span, node.get());
  RebuildNodeStats(node.get(), box);
  return node;
}

void SsTree::BulkSplit(BulkInput* in, size_t lo, size_t hi, size_t groups,
                       size_t child_span, SsTreeNode* parent) {
  if (groups == 1) {
    double* box = NextChildBox(parent);
    parent->children_.push_back(BulkBuild(in, lo, hi, child_span, box));
    return;
  }
  // The run splits into `groups` runs whose sizes differ by at most one;
  // the cut falls after the first groups / 2 of them, near the median.
  const size_t n = hi - lo;
  const size_t left_groups = groups / 2;
  const size_t mid = lo + n / groups * left_groups +
                     std::min(left_groups, n % groups);

  // The cut dimension is the centre coordinate of largest variance over
  // at most kVarianceSample evenly strided rows, summed in one pass with
  // the first row as the origin (shifted data keep the sums accurate).
  constexpr size_t kVarianceSample = 128;
  const size_t samples = std::min(n, kVarianceSample);
  const double* origin = in->center(lo);
  std::fill(in->sum.begin(), in->sum.end(), 0.0);
  std::fill(in->var.begin(), in->var.end(), 0.0);
  for (size_t s = 1; s < samples; ++s) {
    const double* c = in->center(lo + s * n / samples);
    for (size_t d = 0; d < dim_; ++d) {
      const double delta = c[d] - origin[d];
      in->sum[d] += delta;
      in->var[d] += delta * delta;
    }
  }
  for (size_t d = 0; d < dim_; ++d) {
    in->var[d] -= in->sum[d] * in->sum[d] / static_cast<double>(samples);
  }
  const size_t cut_dim = static_cast<size_t>(
      std::max_element(in->var.begin(), in->var.end()) - in->var.begin());
  for (size_t j = lo; j < hi; ++j) {
    in->keyed[j].first = in->center(j)[cut_dim];
  }
  const auto first = in->keyed.begin();
  std::nth_element(
      first + lo, first + mid, first + hi,
      [](const auto& a, const auto& b) { return a.first < b.first; });
  BulkSplit(in, lo, mid, left_groups, child_span, parent);
  BulkSplit(in, mid, hi, groups - left_groups, child_span, parent);
}

Status SsTree::BulkLoadStr(const std::vector<Hypersphere>& spheres) {
  return BulkLoadStrWithIds(spheres, {});
}

Status SsTree::BulkLoadStrWithIds(const std::vector<Hypersphere>& spheres,
                                  const std::vector<uint64_t>& ids) {
  IndexBuildRecorder recorder;
  HYPERDOM_RETURN_NOT_OK(ValidateOptions());
  if (!ids.empty() && ids.size() != spheres.size()) {
    return Status::InvalidArgument("ids and spheres must have equal sizes");
  }
  HYPERDOM_FAULT_POINT("ss_tree/str_pack");
  root_.reset();
  root_box_.clear();
  size_ = 0;
  store_ = std::make_shared<SphereStore>(dim_);
  if (spheres.empty()) {
    recorder.Finish(0);
    return Status::OK();
  }

  for (const Hypersphere& sphere : spheres) {
    if (sphere.dim() != dim_) {
      return Status::InvalidArgument(
          "all spheres must share the tree's dimensionality");
    }
  }
  // Nodes are cut for 85% of max_entries (20 at the default 24). The
  // factor fixes every tree's shape, and with it snapshot bytes and the
  // pinned traversal counts.
  const size_t capacity = std::max<size_t>(
      2,
      static_cast<size_t>(0.85 * static_cast<double>(options_.max_entries)));
  BulkInput in(spheres, ids, capacity, dim_);
  store_->Reserve(spheres.size());
  // The root spans capacity^height rows for the least height that holds
  // them all.
  size_t span = in.leaf_capacity;
  while (span < spheres.size()) span *= in.leaf_capacity;
  root_box_.resize(2 * dim_);
  root_ = BulkBuild(&in, 0, spheres.size(), span, root_box_.data());
  size_ = spheres.size();
  recorder.Finish(size_);
  return Status::OK();
}

void SsTree::RefreshBoundingSphere(SsTreeNode* node, double* box) {
  // The node's items: a leaf's entry spheres, an internal node's child
  // spheres (packed first, so both read from flat rows).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool leaf = node->is_leaf_;
  const size_t n = leaf ? node->entries_.size() : node->children_.size();
  double* centers = nullptr;
  double* radii = nullptr;
  if (!leaf) {
    // The node's data box is the union of its children's, which the
    // builder packed first; the child spheres go behind them.
    std::vector<double>& packed = node->child_bounds_;
    ClearBox(box, dim_);
    for (size_t i = 0; i < n; ++i) {
      CoverBox(box, packed.data() + i * 2 * dim_, dim_);
    }
    packed.resize(n * (3 * dim_ + 1));
    centers = packed.data() + n * 2 * dim_;
    radii = centers + n * dim_;
    for (size_t i = 0; i < n; ++i) {
      const Hypersphere& child = node->children_[i]->bounding_;
      std::copy(child.center().begin(), child.center().end(),
                centers + i * dim_);
      radii[i] = child.radius();
    }
  }
  auto item_center = [&](size_t i) {
    return leaf ? store_->center(node->entries_[i].slot) : centers + i * dim_;
  };
  auto item_radius = [&](size_t i) {
    return leaf ? store_->radius(node->entries_[i].slot) : radii[i];
  };
  // Centred on the midpoint of the items' bounding box, a pure function of
  // the items: tighter than the centroid when the items fill a slab.
  // `center` holds the box's low corner until the midpoint is taken; one
  // pass reads each item's row in order.
  Point center(dim_, kInf);
  Point hi(dim_, -kInf);
  for (size_t i = 0; i < n; ++i) {
    const double* c = item_center(i);
    const double r = item_radius(i);
    for (size_t d = 0; d < dim_; ++d) {
      center[d] = std::min(center[d], c[d] - r);
      hi[d] = std::max(hi[d], c[d] + r);
    }
  }
  if (leaf) {
    // A leaf's items are its data spheres, so their box is its data box.
    std::copy(center.begin(), center.end(), box);
    std::copy(hi.begin(), hi.end(), box + dim_);
  }
  for (size_t d = 0; d < dim_; ++d) center[d] = 0.5 * center[d] + 0.5 * hi[d];
  double radius = 0.0;
  for (size_t i = 0; i < n; ++i) {
    radius = std::max(
        radius, DistSpan(center.data(), item_center(i), dim_) + item_radius(i));
  }
  node->bounding_ = Hypersphere(std::move(center), radius);
}

size_t SsTree::Height() const {
  size_t h = 0;
  for (const SsTreeNode* node = root_.get(); node != nullptr;
       node = node->is_leaf() ? nullptr : node->children().front().get()) {
    ++h;
  }
  return h;
}

namespace {

// Checks the subtree under `node` and writes the box around its data
// spheres, taken from the store rows, to box[0, 2 * dim).
Status CheckNode(const SsTreeNode* node, const SphereStore& store,
                 const SsTreeOptions& options, bool is_root, size_t depth,
                 size_t* leaf_depth, size_t* entry_total,
                 std::vector<bool>* slot_seen, double* box) {
  const Hypersphere& bound = node->bounding_sphere();
  const double slack =
      kCoverageSlack * (1.0 + bound.radius() + Norm(bound.center()));

  const size_t occupancy = node->is_leaf() ? node->entries().size()
                                           : node->children().size();
  if (occupancy > options.max_entries) {
    return Status::Corruption("node occupancy exceeds max_entries");
  }
  if (!is_root && occupancy < 2) {
    return Status::Corruption("non-root node with fewer than 2 items");
  }
  const size_t dim = bound.dim();
  ClearBox(box, dim);

  if (node->is_leaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    size_t count = 0;
    for (const auto& e : node->entries()) {
      if (e.slot >= store.size()) {
        return Status::Corruption("entry slot out of store range");
      }
      if ((*slot_seen)[e.slot]) {
        return Status::Corruption("store slot " + std::to_string(e.slot) +
                                  " referenced twice");
      }
      (*slot_seen)[e.slot] = true;
      if (DistSpan(bound.center().data(), store.center(e.slot), store.dim()) +
              store.radius(e.slot) >
          bound.radius() + slack) {
        return Status::Corruption("leaf entry escapes bounding sphere");
      }
      const double* c = store.center(e.slot);
      const double r = store.radius(e.slot);
      for (size_t d = 0; d < dim; ++d) {
        box[d] = std::min(box[d], c[d] - r);
        box[dim + d] = std::max(box[dim + d], c[d] + r);
      }
      ++count;
    }
    if (count != node->subtree_size()) {
      return Status::Corruption("leaf count mismatch");
    }
    *entry_total += count;
    return Status::OK();
  }

  if (node->child_bounds().size() != occupancy * (3 * dim + 1)) {
    return Status::Corruption("packed child bounds have the wrong size");
  }
  std::vector<double> child_box(2 * dim);
  size_t child_total = 0;
  for (size_t i = 0; i < occupancy; ++i) {
    const SsTreeNode* child = node->children()[i].get();
    const Hypersphere& cb = child->bounding_sphere();
    const double packed_radius = node->child_radii()[i];
    const double child_radius = cb.radius();
    if (std::memcmp(node->child_centers() + i * dim, cb.center().data(),
                    dim * sizeof(double)) != 0 ||
        std::memcmp(&packed_radius, &child_radius, sizeof(double)) != 0) {
      return Status::Corruption("packed child bound differs from the child's");
    }
    if (Dist(bound.center(), cb.center()) + cb.radius() >
        bound.radius() + slack) {
      return Status::Corruption("child sphere escapes parent sphere");
    }
    HYPERDOM_RETURN_NOT_OK(CheckNode(child, store, options,
                                     /*is_root=*/false, depth + 1, leaf_depth,
                                     entry_total, slot_seen, child_box.data()));
    if (std::memcmp(node->child_boxes() + i * 2 * dim, child_box.data(),
                    2 * dim * sizeof(double)) != 0) {
      return Status::Corruption(
          "packed child box differs from the box around its data");
    }
    CoverBox(box, child_box.data(), dim);
    child_total += child->subtree_size();
  }
  if (child_total != node->subtree_size()) {
    return Status::Corruption("internal subtree count mismatch");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Persistence. Binary layout (all integers little-endian host-width types,
// doubles in IEEE host representation — a same-machine cache format):
//   magic "HDSS" + u32 version
//   u64 dim, u64 size, u64 max_entries, f64 0.4, u32 0, u32 0
//   the SphereStore blob (storage/sphere_store.cc), then recursive node
//   records:
//     u8 is_leaf
//     leaf:     u64 entry_count, then per entry: u32 slot, u64 id
//     internal: u64 child_count, then the child records
// The version is 3. Any other, including the retired inline-sphere
// version 2, is kNotSupported: snapshot callers rebuild from the data.
// The f64 and the two u32 fields are retired and ignored on read. The
// f64 held the insertion split's minimum fill ratio; it is written as 0.4,
// that option's old default, so the bytes do not change. The u32 fields
// named a split and a bounding policy; they are written as 0, and on read
// 0 or 1 is accepted (builds with a selectable policy wrote 1, and either
// left a valid tree) and anything else is kCorruption. Subtree counts and
// bounding spheres are recomputed on load, so a v3 file from a build that
// still built by insertion loads too.
// Every store slot is serialized, so slots stay stable. Nothing is
// allocated for a declared count before its records have been read.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'H', 'D', 'S', 'S'};
constexpr uint32_t kFormatVersion = 3;
// The value written in the retired fill-ratio field.
constexpr double kRetiredFillRatio = 0.4;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

void SaveNode(std::ostream& out, const SsTreeNode* node) {
  const uint8_t is_leaf = node->is_leaf() ? 1 : 0;
  WritePod(out, is_leaf);
  if (node->is_leaf()) {
    WritePod(out, static_cast<uint64_t>(node->entries().size()));
    for (const auto& e : node->entries()) {
      WritePod(out, e.slot);
      WritePod(out, e.id);
    }
  } else {
    WritePod(out, static_cast<uint64_t>(node->children().size()));
    for (const auto& child : node->children()) {
      SaveNode(out, child.get());
    }
  }
}

}  // namespace

Status SsTree::Serialize(std::ostream& out) const {
  HYPERDOM_FAULT_POINT("ss_tree/serialize");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kFormatVersion);
  WritePod(out, static_cast<uint64_t>(dim_));
  WritePod(out, static_cast<uint64_t>(size_));
  WritePod(out, static_cast<uint64_t>(options_.max_entries));
  WritePod(out, kRetiredFillRatio);
  WritePod(out, uint32_t{0});  // retired split-policy field
  WritePod(out, uint32_t{0});  // retired bounding-policy field
  HYPERDOM_RETURN_NOT_OK(store_->SerializeTo(out));
  if (root_ != nullptr) SaveNode(out, root_.get());
  out.flush();
  if (!out) return Status::IOError("SS-tree serialization stream failed");
  return Status::OK();
}

// Loads one node record of slot references against the already-loaded
// store.
Status SsTree::LoadNode(std::istream& in, const SphereStore& store,
                        size_t max_entries, size_t depth,
                        std::unique_ptr<SsTreeNode>* out_node) {
  // Depth bound: a valid tree over 2^64 entries is far shallower than 64
  // levels at fanout >= 2; deeper means a corrupt or adversarial file.
  if (depth > 64) return Status::Corruption("node nesting too deep");
  uint8_t is_leaf = 0;
  if (!ReadPod(in, &is_leaf) || is_leaf > 1) {
    return Status::Corruption("bad node tag");
  }
  auto node = std::make_unique<SsTreeNode>(is_leaf == 1);
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return Status::Corruption("truncated node");
  if (count == 0 || count > max_entries) {
    return Status::Corruption("node occupancy out of range");
  }
  if (is_leaf == 1) {
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t slot = 0;
      uint64_t id = 0;
      if (!ReadPod(in, &slot) || !ReadPod(in, &id)) {
        return Status::Corruption("truncated entry");
      }
      if (slot >= store.size()) {
        return Status::Corruption("entry slot out of store range");
      }
      node->entries_.push_back(SsTreeEntry{slot, id});
    }
  } else {
    for (uint64_t i = 0; i < count; ++i) {
      std::unique_ptr<SsTreeNode> child;
      HYPERDOM_RETURN_NOT_OK(
          LoadNode(in, store, max_entries, depth + 1, &child));
      node->children_.push_back(std::move(child));
    }
  }
  *out_node = std::move(node);
  return Status::OK();
}

Status SsTree::Deserialize(std::istream& in, SsTree* out) {
  HYPERDOM_FAULT_POINT("ss_tree/deserialize");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic: not an SS-tree file");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Status::Corruption("truncated header");
  if (version != kFormatVersion) {
    return Status::NotSupported("unsupported SS-tree format version " +
                                std::to_string(version));
  }
  uint64_t dim = 0, size = 0, max_entries = 0;
  double retired_fill_ratio = 0.0;
  uint32_t split_policy = 0;
  uint32_t bounding_policy = 0;
  if (!ReadPod(in, &dim) || !ReadPod(in, &size) || !ReadPod(in, &max_entries) ||
      !ReadPod(in, &retired_fill_ratio) || !ReadPod(in, &split_policy) ||
      !ReadPod(in, &bounding_policy)) {
    return Status::Corruption("truncated header");
  }
  if (dim == 0 || max_entries < 4 || split_policy > 1 || bounding_policy > 1) {
    return Status::Corruption("bad header fields");
  }

  SsTreeOptions options;
  options.max_entries = max_entries;
  SsTree tree(dim, options);
  SphereStore store;
  HYPERDOM_RETURN_NOT_OK(SphereStore::DeserializeFrom(in, &store));
  if (store.size() > 0 && store.dim() != dim) {
    return Status::Corruption("store dimensionality mismatch");
  }
  *tree.store_ = std::move(store);
  if (size > 0) {
    HYPERDOM_RETURN_NOT_OK(LoadNode(in, *tree.store_, max_entries,
                                    /*depth=*/0, &tree.root_));
    // Recompute derived per-node data bottom-up.
    auto rebuild = [&tree](auto& self, SsTreeNode* node, double* box) -> void {
      node->child_bounds_.reserve(node->children_.size() *
                                  (3 * tree.dim_ + 1));
      for (auto& child : node->children_) {
        self(self, child.get(), tree.NextChildBox(node));
      }
      tree.RebuildNodeStats(node, box);
    };
    tree.root_box_.resize(2 * dim);
    rebuild(rebuild, tree.root_.get(), tree.root_box_.data());
    if (tree.root_->count_ != size) {
      return Status::Corruption("entry count does not match header");
    }
    tree.size_ = size;
  }
  HYPERDOM_RETURN_NOT_OK(tree.CheckInvariants());
  *out = std::move(tree);
  return Status::OK();
}

Status SsTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty root but nonzero size");
  }
  size_t leaf_depth = 0;
  size_t entry_total = 0;
  std::vector<bool> slot_seen(store_->size(), false);
  std::vector<double> box(2 * dim_);
  HYPERDOM_RETURN_NOT_OK(CheckNode(root_.get(), *store_, options_,
                                   /*is_root=*/true, /*depth=*/1, &leaf_depth,
                                   &entry_total, &slot_seen, box.data()));
  if (root_box_.size() != box.size() ||
      std::memcmp(root_box_.data(), box.data(),
                  box.size() * sizeof(double)) != 0) {
    return Status::Corruption("root box differs from the box around the data");
  }
  if (entry_total != size_) {
    return Status::Corruption("total entry count mismatch: tree says " +
                              std::to_string(size_) + ", walk found " +
                              std::to_string(entry_total));
  }
  return Status::OK();
}

}  // namespace hyperdom
