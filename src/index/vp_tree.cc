// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/vp_tree.h"

#include <algorithm>

#include "common/fault.h"
#include "index/index_metrics.h"

namespace hyperdom {

VpTree::VpTree(VpTreeOptions options)
    : options_(options), store_(std::make_shared<SphereStore>()) {}

Status VpTree::Build(const std::vector<Hypersphere>& spheres) {
  IndexBuildRecorder recorder("vp", "build");
  root_.reset();
  size_ = 0;
  dim_ = 0;
  store_ = std::make_shared<SphereStore>();
  if (options_.leaf_size < 1) {
    return Status::InvalidArgument("VpTreeOptions.leaf_size must be >= 1");
  }
  if (spheres.empty()) {
    recorder.Finish(0);
    return Status::OK();
  }
  HYPERDOM_FAULT_POINT("vp_tree/build");
  dim_ = spheres.front().dim();
  store_ = std::make_shared<SphereStore>(dim_);
  store_->Reserve(spheres.size());
  std::vector<VpTreeEntry> items;
  items.reserve(spheres.size());
  for (size_t i = 0; i < spheres.size(); ++i) {
    if (spheres[i].dim() != dim_) {
      return Status::InvalidArgument(
          "all spheres must share one dimensionality");
    }
    const uint32_t slot = store_->Add(spheres[i]);
    items.push_back(VpTreeEntry{slot, static_cast<uint64_t>(i)});
  }
  HYPERDOM_RETURN_NOT_OK(BuildRecursive(std::move(items), &root_));
  size_ = spheres.size();
  recorder.Finish(size_);
  return Status::OK();
}

Status VpTree::BuildRecursive(std::vector<VpTreeEntry> items,
                              std::unique_ptr<VpTreeNode>* out) {
  // Node allocation — where a paged build would touch storage.
  HYPERDOM_FAULT_POINT("vp_tree/build_node");
  auto node = std::make_unique<VpTreeNode>();
  node->subtree_size_ = items.size();
  for (const auto& item : items) {
    node->max_radius_ = std::max(node->max_radius_, store_->radius(item.slot));
  }

  if (items.size() <= options_.leaf_size) {
    node->is_leaf_ = true;
    node->bucket_ = std::move(items);
    *out = std::move(node);
    return Status::OK();
  }

  // Vantage point: the last item (the vector order is caller-random; a
  // deterministic choice keeps builds reproducible).
  node->vantage_ = items.back();
  items.pop_back();

  // Distances of the remaining centers to the vantage center.
  const double* vantage_center = store_->center(node->vantage_.slot);
  std::vector<std::pair<double, size_t>> dist_order(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    dist_order[i] = {
        DistSpan(store_->center(items[i].slot), vantage_center, dim_), i};
  }
  std::sort(dist_order.begin(), dist_order.end());

  const size_t half = items.size() / 2;
  std::vector<VpTreeEntry> inside_items, outside_items;
  inside_items.reserve(half);
  outside_items.reserve(items.size() - half);
  for (size_t i = 0; i < dist_order.size(); ++i) {
    auto& target = i < half ? inside_items : outside_items;
    target.push_back(items[dist_order[i].second]);
  }

  if (!inside_items.empty()) {
    node->inside_lo_ = dist_order.front().first;
    node->inside_hi_ = dist_order[half - 1].first;
    HYPERDOM_RETURN_NOT_OK(
        BuildRecursive(std::move(inside_items), &node->inside_));
  }
  if (!outside_items.empty()) {
    node->outside_lo_ = dist_order[half].first;
    node->outside_hi_ = dist_order.back().first;
    HYPERDOM_RETURN_NOT_OK(
        BuildRecursive(std::move(outside_items), &node->outside_));
  }
  *out = std::move(node);
  return Status::OK();
}

namespace {

Status CheckNode(const VpTreeNode* node, const SphereStore& store,
                 size_t* entry_total) {
  if (node->is_leaf()) {
    for (const auto& e : node->bucket()) {
      if (e.slot >= store.size()) {
        return Status::Corruption("bucket slot out of store range");
      }
      if (store.radius(e.slot) > node->max_radius() + 1e-12) {
        return Status::Corruption("bucket radius exceeds max_radius");
      }
    }
    *entry_total += node->bucket().size();
    return Status::OK();
  }

  if (node->vantage().slot >= store.size()) {
    return Status::Corruption("vantage slot out of store range");
  }
  if (store.radius(node->vantage().slot) > node->max_radius() + 1e-12) {
    return Status::Corruption("vantage radius exceeds max_radius");
  }
  size_t children_total = 1;  // the vantage entry itself

  struct Side {
    const VpTreeNode* child;
    double lo;
    double hi;
  };
  const Side sides[2] = {
      {node->inside(), node->inside_lo(), node->inside_hi()},
      {node->outside(), node->outside_lo(), node->outside_hi()},
  };
  const double* vantage_center = store.center(node->vantage().slot);
  for (const Side& side : sides) {
    if (side.child == nullptr) continue;
    if (side.child->max_radius() > node->max_radius() + 1e-12) {
      return Status::Corruption("child max_radius exceeds parent's");
    }
    // Every entry in the child subtree must respect the distance band.
    std::vector<const VpTreeNode*> stack = {side.child};
    while (!stack.empty()) {
      const VpTreeNode* cur = stack.back();
      stack.pop_back();
      auto check_entry = [&](const VpTreeEntry& e) {
        if (e.slot >= store.size()) {
          return Status::Corruption("entry slot out of store range");
        }
        const double d =
            DistSpan(store.center(e.slot), vantage_center, store.dim());
        const double slack = 1e-9 * (1.0 + d);
        if (d < side.lo - slack || d > side.hi + slack) {
          return Status::Corruption("entry violates distance band");
        }
        return Status::OK();
      };
      if (cur->is_leaf()) {
        for (const auto& e : cur->bucket()) {
          HYPERDOM_RETURN_NOT_OK(check_entry(e));
        }
      } else {
        HYPERDOM_RETURN_NOT_OK(check_entry(cur->vantage()));
        if (cur->inside() != nullptr) stack.push_back(cur->inside());
        if (cur->outside() != nullptr) stack.push_back(cur->outside());
      }
    }
    HYPERDOM_RETURN_NOT_OK(CheckNode(side.child, store, &children_total));
  }
  if (children_total != node->subtree_size()) {
    return Status::Corruption("subtree count mismatch");
  }
  *entry_total += children_total;
  return Status::OK();
}

}  // namespace

Status VpTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty root but nonzero size");
  }
  size_t entry_total = 0;
  HYPERDOM_RETURN_NOT_OK(CheckNode(root_.get(), *store_, &entry_total));
  if (entry_total != size_) {
    return Status::Corruption("total entry count mismatch");
  }
  return Status::OK();
}

}  // namespace hyperdom
