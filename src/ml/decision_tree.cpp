#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace moela::ml {

RankTable::RankTable(const Dataset& data)
    : data_(&data), ranks_(data.num_features() * data.size()) {
  const std::size_t n = data.size();
  value_begin_.reserve(data.num_features() + 1);
  value_begin_.push_back(0);
  std::vector<double> distinct;
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    const std::span<const double> column = data.column(f);
    distinct.assign(column.begin(), column.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::uint32_t* rank = ranks_.data() + f * n;
    for (std::size_t s = 0; s < n; ++s) {
      rank[s] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), column[s]) -
          distinct.begin());
    }
    values_.insert(values_.end(), distinct.begin(), distinct.end());
    value_begin_.push_back(values_.size());
    max_distinct_ = std::max(max_distinct_, distinct.size());
  }
}

/// Buffers shared by every node of one fit.
struct DecisionTree::Scratch {
  /// Storage slots of the samples; each node owns a [begin, end) range.
  std::vector<std::size_t> slots;
  /// Targets of the current node's samples and their squares, in node
  /// order. Squaring once here leaves the scans only additions, which no
  /// compiler can contract differently in the two paths.
  std::vector<double> y;
  std::vector<double> y2;
  /// Per-rank buckets, all zero between uses.
  std::vector<std::uint32_t> count;
  std::vector<double> sum;
  std::vector<double> sq;
  /// (rank << 32 | node position) keys of the sorting path.
  std::vector<std::uint64_t> keys;
  /// Whether each node draws its candidate features; if not, every node
  /// examines all of them.
  bool draw_features = false;
  std::vector<std::size_t> all_features;
};

namespace {

/// The best split of one node so far, across the features scanned.
struct BestSplit {
  double sse = std::numeric_limits<double>::infinity();
  double threshold = 0.0;
  std::size_t feature = static_cast<std::size_t>(-1);
};

}  // namespace

void DecisionTree::fit(const RankTable& table,
                       std::span<const std::size_t> sample_indices,
                       const TreeConfig& config, util::Rng& rng) {
  if (sample_indices.empty()) {
    throw std::invalid_argument("DecisionTree::fit: no samples");
  }
  const Dataset& data = table.data();
  nodes_.clear();
  Scratch s;
  s.slots.reserve(sample_indices.size());
  for (std::size_t i : sample_indices) s.slots.push_back(data.slot(i));
  s.y.resize(sample_indices.size());
  s.y2.resize(sample_indices.size());
  s.count.assign(table.max_distinct(), 0);
  s.sum.assign(table.max_distinct(), 0.0);
  s.sq.assign(table.max_distinct(), 0.0);
  s.draw_features = config.max_features != 0 &&
                    config.max_features < data.num_features();
  if (!s.draw_features) {
    s.all_features.resize(data.num_features());
    std::iota(s.all_features.begin(), s.all_features.end(), std::size_t{0});
  }
  build(table, s, 0, s.slots.size(), config, 0, rng);
}

void DecisionTree::fit(const Dataset& data, const TreeConfig& config,
                       util::Rng& rng) {
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  fit(RankTable(data), all, config, rng);
}

std::size_t DecisionTree::build(const RankTable& table, Scratch& s,
                                std::size_t begin, std::size_t end,
                                const TreeConfig& config, std::size_t depth,
                                util::Rng& rng) {
  const std::size_t node_id = nodes_.size();
  nodes_.emplace_back();
  const Dataset& data = table.data();
  const std::span<const std::size_t> slots(s.slots.data() + begin,
                                           end - begin);
  const std::size_t n = slots.size();
  const std::span<const double> targets = data.targets();
  double total_sum = 0.0, total_sq = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    s.y[k] = targets[slots[k]];
    s.y2[k] = s.y[k] * s.y[k];
    total_sum += s.y[k];
    total_sq += s.y2[k];
  }
  const double value = total_sum / static_cast<double>(n);
  nodes_[node_id].value = value;

  bool make_leaf = depth >= config.max_depth || n < config.min_samples_split;
  if (!make_leaf) {
    // Leaf if targets are (numerically) constant.
    make_leaf = std::none_of(s.y.begin(), s.y.begin() + n, [&](double y) {
      return std::abs(y - value) > 1e-12;
    });
  }
  if (make_leaf) return node_id;

  // Candidate features: a random subset of size max_features (forest mode)
  // or all features.
  std::vector<std::size_t> drawn;
  if (s.draw_features) {
    drawn = rng.sample_indices(data.num_features(), config.max_features);
  }
  const std::vector<std::size_t>& feats =
      s.draw_features ? drawn : s.all_features;

  BestSplit best;
  for (std::size_t feature : feats) {
    const std::span<const std::uint32_t> ranks = table.ranks(feature);
    const std::span<const double> values = table.values(feature);
    if (values.size() < 2) continue;  // constant over the whole dataset
    // Takes the feature's equal-value groups in ascending rank order and
    // offers the split between each group and the one before it.
    // SSE of a side = sum(y^2) - (sum y)^2 / n.
    std::size_t left_count = 0;
    double left_sum = 0.0, left_sq = 0.0;
    std::uint32_t prev_rank = 0;
    const auto add_group = [&](std::uint32_t rank, std::size_t count,
                               double sum, double sq) {
      const std::size_t nl = left_count;
      const std::size_t nr = n - nl;
      if (nl > 0 && nl >= config.min_samples_leaf &&
          nr >= config.min_samples_leaf) {
        const double right_sum = total_sum - left_sum;
        const double right_sq = total_sq - left_sq;
        const double sse_l =
            left_sq - left_sum * left_sum / static_cast<double>(nl);
        const double sse_r =
            right_sq - right_sum * right_sum / static_cast<double>(nr);
        const double sse = sse_l + sse_r;
        if (sse < best.sse) {
          best.sse = sse;
          best.threshold = 0.5 * (values[prev_rank] + values[rank]);
          best.feature = feature;
        }
      }
      left_count += count;
      left_sum += sum;
      left_sq += sq;
      prev_rank = rank;
    };
    if (values.size() <= n) {
      // Few distinct values: one pass into per-rank buckets.
      std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t r = ranks[slots[k]];
        ++s.count[r];
        s.sum[r] += s.y[k];
        s.sq[r] += s.y2[k];
        lo = std::min(lo, r);
        hi = std::max(hi, r);
      }
      for (std::uint32_t r = lo; r <= hi; ++r) {
        if (s.count[r] == 0) continue;
        if (lo != hi) add_group(r, s.count[r], s.sum[r], s.sq[r]);
        s.count[r] = 0;
        s.sum[r] = 0.0;
        s.sq[r] = 0.0;
      }
      continue;
    }
    // Many distinct values: sort the node's (rank, position) keys.
    s.keys.clear();
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t r = ranks[slots[k]];
      s.keys.push_back(std::uint64_t{r} << 32 | k);
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    if (lo == hi) continue;  // constant in this node
    std::sort(s.keys.begin(), s.keys.end());
    for (std::size_t j = 0; j < n;) {
      const auto r = static_cast<std::uint32_t>(s.keys[j] >> 32);
      std::size_t count = 0;
      double sum = 0.0, sq = 0.0;
      for (; j < n && static_cast<std::uint32_t>(s.keys[j] >> 32) == r; ++j) {
        const std::size_t k = s.keys[j] & 0xffffffffu;
        ++count;
        sum += s.y[k];
        sq += s.y2[k];
      }
      add_group(r, count, sum, sq);
    }
  }
  if (best.feature == Node::kLeaf) return node_id;  // no valid split found

  // Partition [begin, end) in place around the chosen threshold, keeping
  // node order within each child.
  const std::span<const double> column = data.column(best.feature);
  const auto first = s.slots.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto mid_it = std::stable_partition(
      first, s.slots.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t slot) { return column[slot] <= best.threshold; });
  const auto mid = static_cast<std::size_t>(mid_it - s.slots.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes_[node_id].feature = best.feature;
  nodes_[node_id].threshold = best.threshold;
  const std::size_t left =
      build(table, s, begin, mid, config, depth + 1, rng);
  const std::size_t right = build(table, s, mid, end, config, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTree::predict(std::span<const double> features) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict before fit");
  }
  std::size_t node = 0;
  while (nodes_[node].feature != Node::kLeaf) {
    node = features[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (nodes_[node].feature != Node::kLeaf) {
      stack.push_back({nodes_[node].left, d + 1});
      stack.push_back({nodes_[node].right, d + 1});
    }
  }
  return max_depth;
}

}  // namespace moela::ml
