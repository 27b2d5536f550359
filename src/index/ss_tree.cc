// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/ss_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "common/fault.h"
#include "common/str_util.h"
#include "index/index_metrics.h"

namespace hyperdom {

namespace {

// Relative slack used by the invariant checker when verifying coverage;
// bounding radii are accumulated in floating point.
constexpr double kCoverageSlack = 1e-7;

Point Centroid(const Point& center_sum, size_t count) {
  return Scale(center_sum, 1.0 / static_cast<double>(count));
}

}  // namespace

SsTree::SsTree(size_t dim, SsTreeOptions options)
    : dim_(dim), options_(options),
      store_(std::make_shared<SphereStore>(dim)) {}

Status SsTree::ValidateOptions() const {
  if (options_.max_entries < 4) {
    return Status::InvalidArgument("SsTreeOptions.max_entries must be >= 4");
  }
  if (!(options_.min_fill_ratio > 0.0) || options_.min_fill_ratio > 0.5) {
    return Status::InvalidArgument(
        "SsTreeOptions.min_fill_ratio must be in (0, 0.5]");
  }
  return Status::OK();
}

Status SsTree::Insert(const Hypersphere& sphere, uint64_t id) {
  HYPERDOM_RETURN_NOT_OK(ValidateOptions());
  if (sphere.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch: tree is " +
                                   std::to_string(dim_) + "-d, sphere is " +
                                   std::to_string(sphere.dim()) + "-d");
  }
  const SsTreeEntry entry{store_->Add(sphere), id};
  HYPERDOM_FAULT_POINT("ss_tree/insert");
  if (root_ == nullptr) {
    root_ = std::make_unique<SsTreeNode>(/*is_leaf=*/true);
    root_->center_sum_ = Point(dim_, 0.0);
  }
  std::unique_ptr<SsTreeNode> split_off;
  HYPERDOM_RETURN_NOT_OK(InsertRecursive(root_.get(), entry, &split_off));
  if (split_off != nullptr) {
    // Grow a new root above the two halves.
    auto new_root = std::make_unique<SsTreeNode>(/*is_leaf=*/false);
    new_root->center_sum_ = Add(root_->center_sum_, split_off->center_sum_);
    new_root->count_ = root_->count_ + split_off->count_;
    new_root->children_.push_back(std::move(root_));
    new_root->children_.push_back(std::move(split_off));
    RefreshBoundingSphere(new_root.get());
    root_ = std::move(new_root);
  }
  ++size_;
  return Status::OK();
}

Status SsTree::BulkLoad(const std::vector<Hypersphere>& spheres) {
  IndexBuildRecorder recorder("ss", "bulk_load");
  for (size_t i = 0; i < spheres.size(); ++i) {
    HYPERDOM_RETURN_NOT_OK(Insert(spheres[i], static_cast<uint64_t>(i)));
  }
  recorder.Finish(size_);
  return Status::OK();
}

void SsTree::RebuildNodeStats(SsTreeNode* node) {
  node->center_sum_ = Point(dim_, 0.0);
  node->count_ = 0;
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      AddInPlaceSpan(node->center_sum_.data(), store_->center(e.slot), dim_);
    }
    node->count_ = node->entries_.size();
  } else {
    for (const auto& child : node->children_) {
      node->center_sum_ = Add(node->center_sum_, child->center_sum_);
      node->count_ += child->count_;
    }
  }
  RefreshBoundingSphere(node);
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
                                              size_t hi, size_t span) {
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
    RebuildNodeStats(leaf.get());
    return leaf;
  }
  const size_t child_span = span / in->leaf_capacity;
  const size_t groups = (hi - lo + child_span - 1) / child_span;
  auto node = std::make_unique<SsTreeNode>(/*is_leaf=*/false);
  node->children_.reserve(groups);
  BulkSplit(in, lo, hi, groups, child_span, node.get());
  RebuildNodeStats(node.get());
  return node;
}

void SsTree::BulkSplit(BulkInput* in, size_t lo, size_t hi, size_t groups,
                       size_t child_span, SsTreeNode* parent) {
  if (groups == 1) {
    parent->children_.push_back(BulkBuild(in, lo, hi, child_span));
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
  IndexBuildRecorder recorder("ss", "str_pack");
  HYPERDOM_RETURN_NOT_OK(ValidateOptions());
  if (!ids.empty() && ids.size() != spheres.size()) {
    return Status::InvalidArgument("ids and spheres must have equal sizes");
  }
  HYPERDOM_FAULT_POINT("ss_tree/str_pack");
  root_.reset();
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
  // Pack at ~85% occupancy: full packing turns every subsequent insert
  // into a cascade of splits.
  const size_t capacity = std::max<size_t>(
      2,
      static_cast<size_t>(0.85 * static_cast<double>(options_.max_entries)));
  BulkInput in(spheres, ids, capacity, dim_);
  store_->Reserve(spheres.size());
  // The root spans capacity^height rows for the least height that holds
  // them all.
  size_t span = in.leaf_capacity;
  while (span < spheres.size()) span *= in.leaf_capacity;
  root_ = BulkBuild(&in, 0, spheres.size(), span);
  size_ = spheres.size();
  recorder.Finish(size_);
  return Status::OK();
}

Status SsTree::InsertRecursive(SsTreeNode* node, const SsTreeEntry& entry,
                               std::unique_ptr<SsTreeNode>* split_off) {
  const double* entry_center = store_->center(entry.slot);
  AddInPlaceSpan(node->center_sum_.data(), entry_center, dim_);
  node->count_ += 1;

  if (node->is_leaf_) {
    node->entries_.push_back(entry);
  } else {
    // Cheapest-centroid rule: descend into the child whose centroid is
    // nearest the new sphere's center.
    SsTreeNode* best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto& child : node->children_) {
      const Point centroid = Centroid(child->center_sum_, child->count_);
      const double d = SquaredDistSpan(centroid.data(), entry_center, dim_);
      if (d < best_dist) {
        best_dist = d;
        best = child.get();
      }
    }
    std::unique_ptr<SsTreeNode> child_split;
    HYPERDOM_RETURN_NOT_OK(InsertRecursive(best, entry, &child_split));
    if (child_split != nullptr) {
      node->children_.push_back(std::move(child_split));
    }
  }

  const size_t occupancy =
      node->is_leaf_ ? node->entries_.size() : node->children_.size();
  if (occupancy > options_.max_entries) {
    HYPERDOM_RETURN_NOT_OK(SplitNode(node, split_off));
  }
  RefreshBoundingSphere(node);
  return Status::OK();
}

void SsTree::RefreshBoundingSphere(SsTreeNode* node) {
  const Point center = Centroid(node->center_sum_, node->count_);
  double radius = 0.0;
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      radius = std::max(radius,
                        DistSpan(center.data(), store_->center(e.slot), dim_) +
                            store_->radius(e.slot));
    }
  } else {
    const size_t n = node->children_.size();
    node->child_centers_.resize(n * dim_);
    node->child_radii_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Hypersphere& child = node->children_[i]->bounding_;
      std::copy(child.center().begin(), child.center().end(),
                node->child_centers_.begin() + i * dim_);
      node->child_radii_[i] = child.radius();
      radius = std::max(radius, Dist(center, child.center()) + child.radius());
    }
  }
  node->bounding_ = Hypersphere(center, radius);
}

std::vector<bool> SsTree::ChoosePartition(const std::vector<Point>& keys) const {
  const size_t n = keys.size();
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(options_.min_fill_ratio *
                                       static_cast<double>(n))));
  std::vector<bool> to_sibling(n, false);

  // White & Jain's split: cut the highest-variance coordinate at the
  // position minimizing the two sides' summed variance.
  size_t split_dim = 0;
  double best_var = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& k : keys) {
      sum += k[d];
      sum_sq += k[d] * k[d];
    }
    const double mean = sum / static_cast<double>(n);
    const double var = sum_sq / static_cast<double>(n) - mean * mean;
    if (var > best_var) {
      best_var = var;
      split_dim = d;
    }
  }

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return keys[a][split_dim] < keys[b][split_dim];
  });

  std::vector<double> prefix_sum(n + 1, 0.0), prefix_sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double v = keys[order[i]][split_dim];
    prefix_sum[i + 1] = prefix_sum[i] + v;
    prefix_sq[i + 1] = prefix_sq[i] + v * v;
  }
  auto side_var = [&](size_t lo, size_t hi) {  // [lo, hi)
    const double cnt = static_cast<double>(hi - lo);
    const double mean = (prefix_sum[hi] - prefix_sum[lo]) / cnt;
    return (prefix_sq[hi] - prefix_sq[lo]) / cnt - mean * mean;
  };
  size_t best_cut = min_fill;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t cut = min_fill; cut + min_fill <= n; ++cut) {
    const double cost = side_var(0, cut) + side_var(cut, n);
    if (cost < best_cost) {
      best_cost = cost;
      best_cut = cut;
    }
  }
  for (size_t i = best_cut; i < n; ++i) to_sibling[order[i]] = true;
  return to_sibling;
}

Status SsTree::SplitNode(SsTreeNode* node,
                         std::unique_ptr<SsTreeNode>* out_sibling) {
  // The split allocates a sibling node — the spot where a real allocation
  // or I/O failure would surface in a paged implementation.
  HYPERDOM_FAULT_POINT("ss_tree/split");
  // Split keys: entry centers for leaves, child centroids for internals.
  std::vector<Point> keys;
  const size_t n =
      node->is_leaf_ ? node->entries_.size() : node->children_.size();
  keys.reserve(n);
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      const double* c = store_->center(e.slot);
      keys.emplace_back(c, c + dim_);
    }
  } else {
    for (const auto& child : node->children_) {
      keys.push_back(Centroid(child->center_sum_, child->count_));
    }
  }

  const std::vector<bool> to_sibling = ChoosePartition(keys);

  auto sibling = std::make_unique<SsTreeNode>(node->is_leaf_);
  sibling->center_sum_ = Point(dim_, 0.0);
  if (node->is_leaf_) {
    std::vector<SsTreeEntry> left, right;
    for (size_t i = 0; i < n; ++i) {
      (to_sibling[i] ? right : left).push_back(node->entries_[i]);
    }
    node->entries_ = std::move(left);
    sibling->entries_ = std::move(right);
    node->center_sum_ = Point(dim_, 0.0);
    node->count_ = node->entries_.size();
    for (const auto& e : node->entries_) {
      AddInPlaceSpan(node->center_sum_.data(), store_->center(e.slot), dim_);
    }
    sibling->count_ = sibling->entries_.size();
    for (const auto& e : sibling->entries_) {
      AddInPlaceSpan(sibling->center_sum_.data(), store_->center(e.slot),
                     dim_);
    }
  } else {
    std::vector<std::unique_ptr<SsTreeNode>> left, right;
    for (size_t i = 0; i < n; ++i) {
      (to_sibling[i] ? right : left).push_back(
          std::move(node->children_[i]));
    }
    node->children_ = std::move(left);
    sibling->children_ = std::move(right);
    node->center_sum_ = Point(dim_, 0.0);
    node->count_ = 0;
    for (const auto& child : node->children_) {
      node->center_sum_ = Add(node->center_sum_, child->center_sum_);
      node->count_ += child->count_;
    }
    sibling->count_ = 0;
    for (const auto& child : sibling->children_) {
      sibling->center_sum_ = Add(sibling->center_sum_, child->center_sum_);
      sibling->count_ += child->count_;
    }
  }
  RefreshBoundingSphere(node);
  RefreshBoundingSphere(sibling.get());
  *out_sibling = std::move(sibling);
  return Status::OK();
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

Status CheckNode(const SsTreeNode* node, const SphereStore& store,
                 const SsTreeOptions& options, bool is_root, size_t depth,
                 size_t* leaf_depth, size_t* entry_total,
                 std::vector<bool>* slot_seen) {
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
      ++count;
    }
    if (count != node->subtree_size()) {
      return Status::Corruption("leaf count mismatch");
    }
    *entry_total += count;
    return Status::OK();
  }

  const size_t dim = bound.dim();
  if (node->child_centers().size() != occupancy * dim ||
      node->child_radii().size() != occupancy) {
    return Status::Corruption("packed child bounds have the wrong size");
  }
  size_t child_total = 0;
  for (size_t i = 0; i < occupancy; ++i) {
    const SsTreeNode* child = node->children()[i].get();
    const Hypersphere& cb = child->bounding_sphere();
    const double packed_radius = node->child_radii()[i];
    const double child_radius = cb.radius();
    if (std::memcmp(node->child_centers().data() + i * dim,
                    cb.center().data(), dim * sizeof(double)) != 0 ||
        std::memcmp(&packed_radius, &child_radius, sizeof(double)) != 0) {
      return Status::Corruption("packed child bound differs from the child's");
    }
    if (Dist(bound.center(), cb.center()) + cb.radius() >
        bound.radius() + slack) {
      return Status::Corruption("child sphere escapes parent sphere");
    }
    HYPERDOM_RETURN_NOT_OK(CheckNode(child, store, options,
                                     /*is_root=*/false, depth + 1, leaf_depth,
                                     entry_total, slot_seen));
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
//   u64 dim, u64 size, u64 max_entries, f64 min_fill_ratio, u32 0, u32 0
//   the SphereStore blob (storage/sphere_store.cc), then recursive node
//   records:
//     u8 is_leaf
//     leaf:     u64 entry_count, then per entry: u32 slot, u64 id
//     internal: u64 child_count, then the child records
// The version is 3. Any other, including the retired inline-sphere
// version 2, is kNotSupported: snapshot callers rebuild from the data.
// The two u32 fields are written as 0. On read, 0 or 1 is accepted and
// ignored: builds with a selectable split or bounding policy wrote 1
// there, and either split leaves a valid tree. Anything else is
// kCorruption. Centroids and bounding spheres are recomputed on load.
// Every store slot is serialized, so slots stay stable. Nothing is
// allocated for a declared count before its records have been read.
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'H', 'D', 'S', 'S'};
constexpr uint32_t kFormatVersion = 3;

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
  WritePod(out, options_.min_fill_ratio);
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
  double min_fill_ratio = 0.0;
  uint32_t split_policy = 0;
  uint32_t bounding_policy = 0;
  if (!ReadPod(in, &dim) || !ReadPod(in, &size) || !ReadPod(in, &max_entries) ||
      !ReadPod(in, &min_fill_ratio) || !ReadPod(in, &split_policy) ||
      !ReadPod(in, &bounding_policy)) {
    return Status::Corruption("truncated header");
  }
  if (dim == 0 || max_entries < 4 || split_policy > 1 || bounding_policy > 1) {
    return Status::Corruption("bad header fields");
  }

  SsTreeOptions options;
  options.max_entries = max_entries;
  options.min_fill_ratio = min_fill_ratio;
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
    auto rebuild = [&tree](auto& self, SsTreeNode* node) -> void {
      for (auto& child : node->children_) self(self, child.get());
      tree.RebuildNodeStats(node);
    };
    rebuild(rebuild, tree.root_.get());
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
  HYPERDOM_RETURN_NOT_OK(CheckNode(root_.get(), *store_, options_,
                                   /*is_root=*/true, /*depth=*/1, &leaf_depth,
                                   &entry_total, &slot_seen));
  if (entry_total != size_) {
    return Status::Corruption("total entry count mismatch: tree says " +
                              std::to_string(size_) + ", walk found " +
                              std::to_string(entry_total));
  }
  return Status::OK();
}

}  // namespace hyperdom
