// Test oracle: the random-forest trainer as it was before the rank-bucket
// rewrite, frozen verbatim apart from its data access. It copies the
// Dataset into row-major rows once per fit, re-sorts the node's indices for
// every candidate feature (std::sort, unstable) and splits children with
// std::partition. Slow and obviously correct; do not optimize it.
//
// It draws from the Rng exactly as ml::RandomForest does (bootstrap
// rng.below(n) per sample, then rng.sample_indices per split node,
// depth-first, left before right), so on data where no two features can
// tie the two trainers grow the same trees and consume the same draws.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace moela::ml::reference {

/// Row-major copy of a Dataset in logical (oldest-first) order.
struct Rows {
  explicit Rows(const Dataset& data) : num_features(data.num_features()) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      x.push_back(data.row(i));
      y.push_back(data.target(i));
    }
  }
  std::size_t num_features;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

class ReferenceTree {
 public:
  void fit(const Rows& data, std::span<const std::size_t> sample_indices,
           const TreeConfig& config, util::Rng& rng) {
    if (sample_indices.empty()) {
      throw std::invalid_argument("ReferenceTree::fit: no samples");
    }
    nodes_.clear();
    std::vector<std::size_t> idx(sample_indices.begin(),
                                 sample_indices.end());
    build(data, idx, 0, idx.size(), config, 0, rng);
  }

  double predict(std::span<const double> features) const {
    std::size_t node = 0;
    while (nodes_[node].feature != Node::kLeaf) {
      node = features[nodes_[node].feature] <= nodes_[node].threshold
                 ? nodes_[node].left
                 : nodes_[node].right;
    }
    return nodes_[node].value;
  }

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);
    std::size_t feature = kLeaf;
    double threshold = 0.0;
    double value = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
  };

  struct SplitResult {
    double sse = std::numeric_limits<double>::infinity();
    double threshold = 0.0;
  };

  static double mean_target(const Rows& data,
                            std::span<const std::size_t> idx) {
    double s = 0.0;
    for (std::size_t i : idx) s += data.y[i];
    return idx.empty() ? 0.0 : s / static_cast<double>(idx.size());
  }

  static SplitResult best_split_on_feature(const Rows& data,
                                           std::span<const std::size_t> idx,
                                           std::size_t feature,
                                           std::size_t min_samples_leaf,
                                           std::vector<std::size_t>& scratch) {
    scratch.assign(idx.begin(), idx.end());
    std::sort(scratch.begin(), scratch.end(),
              [&](std::size_t a, std::size_t b) {
                return data.x[a][feature] < data.x[b][feature];
              });
    const std::size_t n = scratch.size();
    double left_sum = 0.0, left_sq = 0.0;
    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i : scratch) {
      total_sum += data.y[i];
      total_sq += data.y[i] * data.y[i];
    }
    SplitResult best;
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double y = data.y[scratch[k]];
      left_sum += y;
      left_sq += y * y;
      const double xk = data.x[scratch[k]][feature];
      const double xn = data.x[scratch[k + 1]][feature];
      if (xk == xn) continue;
      const std::size_t nl = k + 1;
      const std::size_t nr = n - nl;
      if (nl < min_samples_leaf || nr < min_samples_leaf) continue;
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse_l =
          left_sq - left_sum * left_sum / static_cast<double>(nl);
      const double sse_r =
          right_sq - right_sum * right_sum / static_cast<double>(nr);
      const double sse = sse_l + sse_r;
      if (sse < best.sse) {
        best.sse = sse;
        best.threshold = 0.5 * (xk + xn);
      }
    }
    return best;
  }

  std::size_t build(const Rows& data, std::vector<std::size_t>& indices,
                    std::size_t begin, std::size_t end,
                    const TreeConfig& config, std::size_t depth,
                    util::Rng& rng) {
    const std::size_t node_id = nodes_.size();
    nodes_.emplace_back();
    std::span<const std::size_t> idx(indices.data() + begin, end - begin);
    const double value = mean_target(data, idx);
    nodes_[node_id].value = value;

    const std::size_t n = end - begin;
    bool make_leaf =
        depth >= config.max_depth || n < config.min_samples_split;
    if (!make_leaf) {
      bool constant = true;
      for (std::size_t i : idx) {
        if (std::abs(data.y[i] - value) > 1e-12) {
          constant = false;
          break;
        }
      }
      make_leaf = constant;
    }
    if (make_leaf) return node_id;

    const std::size_t f = data.num_features;
    std::vector<std::size_t> feats;
    if (config.max_features == 0 || config.max_features >= f) {
      feats.resize(f);
      std::iota(feats.begin(), feats.end(), std::size_t{0});
    } else {
      feats = rng.sample_indices(f, config.max_features);
    }

    SplitResult best;
    std::size_t best_feature = Node::kLeaf;
    std::vector<std::size_t> scratch;
    for (std::size_t feature : feats) {
      const SplitResult r = best_split_on_feature(
          data, idx, feature, config.min_samples_leaf, scratch);
      if (r.sse < best.sse) {
        best = r;
        best_feature = feature;
      }
    }
    if (best_feature == Node::kLeaf) return node_id;

    auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) {
          return data.x[i][best_feature] <= best.threshold;
        });
    const auto mid = static_cast<std::size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return node_id;

    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best.threshold;
    const std::size_t left =
        build(data, indices, begin, mid, config, depth + 1, rng);
    const std::size_t right =
        build(data, indices, mid, end, config, depth + 1, rng);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

  std::vector<Node> nodes_;
};

class ReferenceForest {
 public:
  explicit ReferenceForest(ForestConfig config = {}) : config_(config) {}

  void fit(const Dataset& dataset, util::Rng& rng) {
    const Rows data(dataset);
    trees_.clear();
    TreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.min_samples_split = config_.min_samples_split;
    tree_config.max_features =
        config_.max_features != 0
            ? config_.max_features
            : std::max<std::size_t>(1, data.num_features / 3);
    const auto n = data.y.size();
    const auto sample_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               config_.subsample * static_cast<double>(n))));
    std::vector<std::size_t> bootstrap(sample_size);
    for (std::size_t t = 0; t < config_.num_trees; ++t) {
      for (auto& b : bootstrap) b = rng.below(n);
      ReferenceTree tree;
      tree.fit(data, bootstrap, tree_config, rng);
      trees_.push_back(std::move(tree));
    }
  }

  double predict(std::span<const double> features) const {
    double s = 0.0;
    for (const auto& t : trees_) s += t.predict(features);
    return s / static_cast<double>(trees_.size());
  }

 private:
  ForestConfig config_;
  std::vector<ReferenceTree> trees_;
};

}  // namespace moela::ml::reference
