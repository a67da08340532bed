// CART regression tree: axis-aligned binary splits minimizing the sum of
// squared errors, grown depth-first with the usual stopping rules.
//
// The tree is the base learner of the random forest that implements MOELA's
// (and MOO-STAGE's) learned evaluation function. Exact split search over all
// candidate thresholds of a random feature subset per node.
//
// The search never sorts samples by value. A RankTable, built once per fit,
// replaces every value by its rank among the column's distinct values, and
// a node scans per-rank (count, sum, sum of squares) groups in rank order:
// by one bucketing pass when the column has no more distinct values than
// the node has samples (one-hot and small-integer columns), else by
// sorting (rank, node position) keys. Either way each group is summed in
// node order, so both paths give the same bits.
//
// Ties: within a feature the lowest threshold with the smallest SSE wins;
// across features the first drawn feature wins (strict <). Which split
// wins an exact SSE tie thus depends on the summation order above.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace moela::ml {

struct TreeConfig {
  std::size_t max_depth = 16;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
  /// Number of features examined per node; 0 means all features
  /// (set by the forest to ~f/3 for regression, the standard default).
  std::size_t max_features = 0;
};

/// A Dataset's columns as ranks: for every column its sorted distinct
/// values, and for every storage slot the rank of its value among them.
/// Keeps a pointer to `data`, which must outlive the table and stay
/// unchanged while trees are fitted from it.
class RankTable {
 public:
  explicit RankTable(const Dataset& data);
  RankTable(Dataset&&) = delete;

  const Dataset& data() const { return *data_; }
  /// Rank of each slot's value of feature f, in slot order.
  std::span<const std::uint32_t> ranks(std::size_t f) const {
    return {ranks_.data() + f * data_->size(), data_->size()};
  }
  /// Distinct values of feature f, ascending.
  std::span<const double> values(std::size_t f) const {
    return {values_.data() + value_begin_[f],
            value_begin_[f + 1] - value_begin_[f]};
  }
  std::size_t max_distinct() const { return max_distinct_; }

 private:
  const Dataset* data_;
  std::vector<std::uint32_t> ranks_;
  std::vector<double> values_;
  std::vector<std::size_t> value_begin_;
  std::size_t max_distinct_ = 0;
};

class DecisionTree {
 public:
  /// Fits the tree to the samples at logical `sample_indices` of the
  /// table's dataset (the forest passes a bootstrap sample).
  void fit(const RankTable& table, std::span<const std::size_t> sample_indices,
           const TreeConfig& config, util::Rng& rng);

  /// Convenience overload over the full dataset.
  void fit(const Dataset& data, const TreeConfig& config, util::Rng& rng);

  double predict(std::span<const double> features) const;

  bool trained() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

 private:
  struct Node {
    // Leaf iff feature == kLeaf; then `value` is the prediction.
    static constexpr std::size_t kLeaf = static_cast<std::size_t>(-1);
    std::size_t feature = kLeaf;
    double threshold = 0.0;  // go left if x[feature] <= threshold
    double value = 0.0;
    std::size_t left = 0;
    std::size_t right = 0;
  };

  struct Scratch;

  std::size_t build(const RankTable& table, Scratch& s, std::size_t begin,
                    std::size_t end, const TreeConfig& config,
                    std::size_t depth, util::Rng& rng);

  std::vector<Node> nodes_;
};

}  // namespace moela::ml
