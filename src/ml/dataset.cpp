#include "ml/dataset.hpp"

#include <stdexcept>

namespace moela::ml {

void Dataset::add(const std::vector<double>& features, double target) {
  if (features.size() != columns_.size()) {
    throw std::invalid_argument("Dataset: feature width mismatch");
  }
  if (capacity_ == 0 || size() < capacity_) {
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      columns_[f].push_back(features[f]);
    }
    targets_.push_back(target);
    return;
  }
  // Full window: the oldest slot takes the new sample and becomes the
  // newest, so the next slot holds the oldest.
  for (std::size_t f = 0; f < columns_.size(); ++f) {
    columns_[f][head_] = features[f];
  }
  targets_[head_] = target;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

std::vector<double> Dataset::row(std::size_t i) const {
  const std::size_t s = slot(i);
  std::vector<double> out;
  out.reserve(columns_.size());
  for (const auto& column : columns_) out.push_back(column[s]);
  return out;
}

}  // namespace moela::ml
