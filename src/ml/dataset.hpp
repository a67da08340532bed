// Column-major regression dataset used to train MOELA's Eval function.
//
// Each sample is (feature vector, scalar target). MOELA appends local-search
// trajectories here — features encode (design, weight vector), the target is
// the final Eq. (8) value reached by the search — and keeps only the most
// recent `capacity` samples (the paper bounds |S_train| <= 10K).
//
// Storage is a ring buffer of columns: one contiguous vector per feature
// plus one for the targets, all indexed by storage slot. The split search
// scans a feature across many samples, so a column is what it reads. Each
// column grows on its own, so only one of them is ever mid-reallocation.
// Logical index 0 is the oldest sample; slot(i) maps a logical index to its
// storage slot.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace moela::ml {

class Dataset {
 public:
  /// `capacity` == 0 means unbounded. Otherwise, once `capacity` samples
  /// are stored, each new one overwrites the oldest (sliding window).
  explicit Dataset(std::size_t num_features, std::size_t capacity = 0)
      : columns_(num_features), capacity_(capacity) {}

  void add(const std::vector<double>& features, double target);

  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }
  std::size_t num_features() const { return columns_.size(); }

  /// Storage slot of the i-th oldest sample.
  std::size_t slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s < size() ? s : s - size();
  }

  double feature(std::size_t i, std::size_t f) const {
    return columns_[f][slot(i)];
  }
  double target(std::size_t i) const { return targets_[slot(i)]; }
  /// Copy of the i-th oldest sample's feature vector.
  std::vector<double> row(std::size_t i) const;

  /// Feature f (or the targets) of every stored sample, in slot order.
  std::span<const double> column(std::size_t f) const { return columns_[f]; }
  std::span<const double> targets() const { return targets_; }

 private:
  std::vector<std::vector<double>> columns_;
  std::vector<double> targets_;
  std::size_t capacity_;
  /// Slot of the oldest sample; nonzero only once the window is full.
  std::size_t head_ = 0;
};

}  // namespace moela::ml
