// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "index/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/fault.h"
#include "index/index_metrics.h"

namespace hyperdom {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative slack for the invariant checker's containment tests.
constexpr double kCoverageSlack = 1e-9;

Point BoxCenter(const Mbr& box) {
  Point c(box.dim());
  for (size_t i = 0; i < box.dim(); ++i) c[i] = box.Mid(i);
  return c;
}

/// The classic R*-tree split: returns the item order and the cut position.
struct SplitChoice {
  std::vector<size_t> order;
  size_t cut = 0;
};

SplitChoice ChooseSplit(const std::vector<Mbr>& boxes, size_t min_fill) {
  const size_t n = boxes.size();
  const size_t dim = boxes.front().dim();

  SplitChoice best;
  double best_margin_sum = kInf;
  // Axis selection: minimize the summed margins over all distributions,
  // considering both the sort-by-lower and sort-by-upper orders.
  for (size_t axis = 0; axis < dim; ++axis) {
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return by_upper ? boxes[a].hi()[axis] < boxes[b].hi()[axis]
                        : boxes[a].lo()[axis] < boxes[b].lo()[axis];
      });
      // Prefix/suffix unions.
      std::vector<Mbr> prefix(n), suffix(n);
      prefix[0] = boxes[order[0]];
      for (size_t i = 1; i < n; ++i) {
        prefix[i] = Union(prefix[i - 1], boxes[order[i]]);
      }
      suffix[n - 1] = boxes[order[n - 1]];
      for (size_t i = n - 1; i-- > 0;) {
        suffix[i] = Union(suffix[i + 1], boxes[order[i]]);
      }
      double margin_sum = 0.0;
      for (size_t cut = min_fill; cut + min_fill <= n; ++cut) {
        margin_sum += Margin(prefix[cut - 1]) + Margin(suffix[cut]);
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best.order = order;
        // Distribution selection along this axis: minimum overlap volume,
        // ties broken by minimum total volume.
        double best_overlap = kInf;
        double best_volume = kInf;
        for (size_t cut = min_fill; cut + min_fill <= n; ++cut) {
          const double overlap = OverlapVolume(prefix[cut - 1], suffix[cut]);
          const double volume = Volume(prefix[cut - 1]) + Volume(suffix[cut]);
          if (overlap < best_overlap ||
              (overlap == best_overlap && volume < best_volume)) {
            best_overlap = overlap;
            best_volume = volume;
            best.cut = cut;
          }
        }
      }
    }
  }
  return best;
}

}  // namespace

RStarTree::RStarTree(size_t dim, RStarTreeOptions options)
    : dim_(dim), options_(options),
      store_(std::make_shared<SphereStore>(dim)) {}

Status RStarTree::ValidateOptions() const {
  if (options_.max_entries < 4) {
    return Status::InvalidArgument("RStarTreeOptions.max_entries must be >= 4");
  }
  if (!(options_.min_fill_ratio > 0.0) || options_.min_fill_ratio > 0.5) {
    return Status::InvalidArgument(
        "RStarTreeOptions.min_fill_ratio must be in (0, 0.5]");
  }
  if (options_.reinsert_fraction < 0.0 || options_.reinsert_fraction > 0.5) {
    return Status::InvalidArgument(
        "RStarTreeOptions.reinsert_fraction must be in [0, 0.5]");
  }
  return Status::OK();
}

Status RStarTree::Insert(const Hypersphere& sphere, uint64_t id) {
  HYPERDOM_RETURN_NOT_OK(ValidateOptions());
  if (sphere.dim() != dim_) {
    return Status::InvalidArgument("dimension mismatch: tree is " +
                                   std::to_string(dim_) + "-d, sphere is " +
                                   std::to_string(sphere.dim()) + "-d");
  }
  HYPERDOM_FAULT_POINT("rstar_tree/insert");
  if (root_ == nullptr) {
    root_ = std::make_unique<RStarTreeNode>(/*is_leaf=*/true);
  }
  const uint32_t slot = store_->Add(sphere);
  InsertEntry(RStarTreeEntry{slot, id}, /*allow_reinsert=*/true);
  ++size_;
  return Status::OK();
}

Status RStarTree::BulkLoad(const std::vector<Hypersphere>& spheres) {
  IndexBuildRecorder recorder("rstar", "bulk_load");
  for (size_t i = 0; i < spheres.size(); ++i) {
    HYPERDOM_RETURN_NOT_OK(Insert(spheres[i], static_cast<uint64_t>(i)));
  }
  recorder.Finish(size_);
  return Status::OK();
}

void RStarTree::InsertEntry(const RStarTreeEntry& entry,
                            bool allow_reinsert) {
  const Mbr box = Mbr::FromSphere(store_->view(entry.slot));
  std::vector<RStarTreeNode*> path;
  RStarTreeNode* node = root_.get();
  while (!node->is_leaf()) {
    path.push_back(node);
    node = ChooseSubtree(node, box);
  }
  path.push_back(node);
  node->entries_.push_back(entry);

  std::vector<RStarTreeEntry> orphans;
  if (node->entries_.size() > options_.max_entries) {
    HandleOverflow(&path, allow_reinsert, &orphans);
  }
  // Refresh boxes bottom-up along the (possibly re-rooted) path.
  for (auto it = path.rbegin(); it != path.rend(); ++it) RefreshMbr(*it);
  RefreshMbr(root_.get());

  for (const auto& orphan : orphans) {
    InsertEntry(orphan, /*allow_reinsert=*/false);
  }
}

RStarTreeNode* RStarTree::ChooseSubtree(RStarTreeNode* node,
                                        const Mbr& box) const {
  const auto& children = node->children_;
  assert(!children.empty());
  const bool leaf_level = children.front()->is_leaf();

  RStarTreeNode* best = nullptr;
  double best_primary = kInf;
  double best_enlarge = kInf;
  double best_volume = kInf;
  for (size_t i = 0; i < children.size(); ++i) {
    const Mbr& child_box = children[i]->mbr_;
    const Mbr enlarged = Union(child_box, box);
    const double enlarge = Volume(enlarged) - Volume(child_box);
    double primary = enlarge;
    if (leaf_level) {
      // Minimum overlap enlargement (Beckmann et al.'s leaf-level rule).
      double before = 0.0, after = 0.0;
      for (size_t j = 0; j < children.size(); ++j) {
        if (j == i) continue;
        before += OverlapVolume(child_box, children[j]->mbr_);
        after += OverlapVolume(enlarged, children[j]->mbr_);
      }
      primary = after - before;
    }
    const double volume = Volume(child_box);
    if (primary < best_primary ||
        (primary == best_primary && enlarge < best_enlarge) ||
        (primary == best_primary && enlarge == best_enlarge &&
         volume < best_volume)) {
      best_primary = primary;
      best_enlarge = enlarge;
      best_volume = volume;
      best = children[i].get();
    }
  }
  return best;
}

void RStarTree::RefreshMbr(RStarTreeNode* node) const {
  if (node->is_leaf_) {
    if (node->entries_.empty()) return;
    Mbr box = Mbr::FromSphere(store_->view(node->entries_.front().slot));
    for (size_t i = 1; i < node->entries_.size(); ++i) {
      box.ExtendToCover(Mbr::FromSphere(store_->view(node->entries_[i].slot)));
    }
    node->mbr_ = box;
  } else {
    if (node->children_.empty()) return;
    Mbr box = node->children_.front()->mbr_;
    for (size_t i = 1; i < node->children_.size(); ++i) {
      box.ExtendToCover(node->children_[i]->mbr_);
    }
    node->mbr_ = box;
  }
}

std::unique_ptr<RStarTreeNode> RStarTree::SplitNode(
    RStarTreeNode* node) const {
  std::vector<Mbr> boxes;
  const size_t n =
      node->is_leaf_ ? node->entries_.size() : node->children_.size();
  boxes.reserve(n);
  if (node->is_leaf_) {
    for (const auto& e : node->entries_) {
      boxes.push_back(Mbr::FromSphere(store_->view(e.slot)));
    }
  } else {
    for (const auto& child : node->children_) boxes.push_back(child->mbr_);
  }
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(options_.min_fill_ratio *
                                       static_cast<double>(n))));
  const SplitChoice choice = ChooseSplit(boxes, min_fill);

  auto sibling = std::make_unique<RStarTreeNode>(node->is_leaf_);
  if (node->is_leaf_) {
    std::vector<RStarTreeEntry> left, right;
    for (size_t i = 0; i < n; ++i) {
      (i < choice.cut ? left : right)
          .push_back(node->entries_[choice.order[i]]);
    }
    node->entries_ = std::move(left);
    sibling->entries_ = std::move(right);
  } else {
    std::vector<std::unique_ptr<RStarTreeNode>> left, right;
    for (size_t i = 0; i < n; ++i) {
      (i < choice.cut ? left : right)
          .push_back(std::move(node->children_[choice.order[i]]));
    }
    node->children_ = std::move(left);
    sibling->children_ = std::move(right);
  }
  RefreshMbr(node);
  RefreshMbr(sibling.get());
  return sibling;
}

void RStarTree::HandleOverflow(std::vector<RStarTreeNode*>* path,
                               bool allow_reinsert,
                               std::vector<RStarTreeEntry>* orphans) {
  RStarTreeNode* leaf = path->back();
  if (allow_reinsert && leaf != root_.get() &&
      options_.reinsert_fraction > 0.0) {
    // Forced reinsert: remove the entries farthest from the node's box
    // center and re-insert them from the top.
    RefreshMbr(leaf);
    const Point center = BoxCenter(leaf->mbr_);
    const size_t p = std::max<size_t>(
        1, static_cast<size_t>(options_.reinsert_fraction *
                               static_cast<double>(leaf->entries_.size())));
    std::vector<size_t> order(leaf->entries_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return SquaredDistSpan(store_->center(leaf->entries_[a].slot),
                             center.data(), dim_) >
             SquaredDistSpan(store_->center(leaf->entries_[b].slot),
                             center.data(), dim_);
    });
    std::vector<bool> removed(leaf->entries_.size(), false);
    for (size_t i = 0; i < p; ++i) {
      orphans->push_back(leaf->entries_[order[i]]);
      removed[order[i]] = true;
    }
    std::vector<RStarTreeEntry> kept;
    kept.reserve(leaf->entries_.size() - p);
    for (size_t i = 0; i < leaf->entries_.size(); ++i) {
      if (!removed[i]) kept.push_back(leaf->entries_[i]);
    }
    leaf->entries_ = std::move(kept);
    RefreshMbr(leaf);
    return;
  }

  // Split, propagating upward while parents overflow.
  size_t level = path->size() - 1;
  std::unique_ptr<RStarTreeNode> split = SplitNode((*path)[level]);
  while (split != nullptr) {
    if (level == 0) {
      // The split node was the root: grow a new root.
      auto new_root = std::make_unique<RStarTreeNode>(/*is_leaf=*/false);
      new_root->children_.push_back(std::move(root_));
      new_root->children_.push_back(std::move(split));
      RefreshMbr(new_root.get());
      root_ = std::move(new_root);
      break;
    }
    RStarTreeNode* parent = (*path)[level - 1];
    parent->children_.push_back(std::move(split));
    RefreshMbr(parent);
    split = parent->children_.size() > options_.max_entries
                ? SplitNode(parent)
                : nullptr;
    --level;
  }
}

size_t RStarTree::Height() const {
  size_t h = 0;
  for (const RStarTreeNode* node = root_.get(); node != nullptr;
       node = node->is_leaf() ? nullptr : node->children().front().get()) {
    ++h;
  }
  return h;
}

namespace {

Status CheckNode(const RStarTreeNode* node, const SphereStore& store,
                 const RStarTreeOptions& options, bool is_root, size_t depth,
                 size_t* leaf_depth, size_t* entry_total) {
  const size_t occupancy =
      node->is_leaf() ? node->entries().size() : node->children().size();
  if (occupancy > options.max_entries) {
    return Status::Corruption("node occupancy exceeds max_entries");
  }
  if (!is_root && occupancy < 2) {
    return Status::Corruption("non-root node with fewer than 2 items");
  }

  auto covered = [&](const Mbr& inner) {
    const Mbr& outer = node->mbr();
    for (size_t i = 0; i < outer.dim(); ++i) {
      const double slack =
          kCoverageSlack *
          (1.0 + std::abs(outer.lo()[i]) + std::abs(outer.hi()[i]));
      if (inner.lo()[i] < outer.lo()[i] - slack ||
          inner.hi()[i] > outer.hi()[i] + slack) {
        return false;
      }
    }
    return true;
  };

  if (node->is_leaf()) {
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    for (const auto& e : node->entries()) {
      if (e.slot >= store.size()) {
        return Status::Corruption("entry slot out of store range");
      }
      if (!covered(Mbr::FromSphere(store.view(e.slot)))) {
        return Status::Corruption("leaf entry escapes node box");
      }
    }
    *entry_total += node->entries().size();
    return Status::OK();
  }

  for (const auto& child : node->children()) {
    if (!covered(child->mbr())) {
      return Status::Corruption("child box escapes parent box");
    }
    HYPERDOM_RETURN_NOT_OK(CheckNode(child.get(), store, options,
                                     /*is_root=*/false, depth + 1, leaf_depth,
                                     entry_total));
  }
  return Status::OK();
}

}  // namespace

Status RStarTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty root but nonzero size");
  }
  size_t leaf_depth = 0;
  size_t entry_total = 0;
  HYPERDOM_RETURN_NOT_OK(CheckNode(root_.get(), *store_, options_,
                                   /*is_root=*/true,
                                   /*depth=*/1, &leaf_depth, &entry_total));
  if (entry_total != size_) {
    return Status::Corruption("total entry count mismatch: tree says " +
                              std::to_string(size_) + ", walk found " +
                              std::to_string(entry_total));
  }
  return Status::OK();
}

}  // namespace hyperdom
