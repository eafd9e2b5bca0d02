// Dense row-major matrix and small dense tensor containers. These hold the
// factor matrices (I x R) of the tensor operations and the dense outputs of
// MTTKRP; R ("rank") is small (8..64 in the paper), so rows are short and
// contiguous row access is the hot pattern.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "util/common.hpp"
#include "util/prng.hpp"

namespace ust {

/// Allocator for DenseMatrix storage: 64 B (cache-line) aligned. Native
/// kernels read factor rows straight from the caller's matrices, and a
/// rank-16 float row is one cache line only when the storage is aligned;
/// misaligned, every row gather touches two lines (a nell2 MTTKRP took
/// 1.3-1.44 ms at a 16 B offset vs 0.9-1.15 ms aligned, 4-vCPU AMD EPYC).
/// The block comes from plain malloc, over-allocated by the alignment, with
/// the raw pointer stored just below the aligned address: aligned operator
/// new maps fresh pages for every large matrix (glibc's dynamic mmap
/// threshold never covers the over-sized aligned request), which cost a CP
/// solve on nell1 ~20k extra page faults.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    void* raw = std::malloc(n * sizeof(T) + kAlign);
    if (raw == nullptr) throw std::bad_alloc();
    // malloc aligns to 16, so the aligned address lies 16..64 bytes past
    // raw, leaving room for the stored pointer.
    const std::uintptr_t at = (reinterpret_cast<std::uintptr_t>(raw) + kAlign) & ~(kAlign - 1);
    std::memcpy(reinterpret_cast<void*>(at - sizeof(void*)), &raw, sizeof(void*));
    return reinterpret_cast<T*>(at);
  }
  void deallocate(T* p, std::size_t) noexcept {
    void* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<const char*>(p) - sizeof(void*), sizeof(void*));
    std::free(raw);
  }
  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(index_t rows, index_t cols, value_t init = value_t{0})
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows) * cols, init) {}

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  std::size_t byte_size() const noexcept { return data_.size() * sizeof(value_t); }

  value_t& operator()(index_t i, index_t j) {
    UST_EXPECTS(i < rows_ && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  value_t operator()(index_t i, index_t j) const {
    UST_EXPECTS(i < rows_ && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  std::span<value_t> row(index_t i) {
    UST_EXPECTS(i < rows_);
    return {data_.data() + static_cast<std::size_t>(i) * cols_, cols_};
  }
  std::span<const value_t> row(index_t i) const {
    UST_EXPECTS(i < rows_);
    return {data_.data() + static_cast<std::size_t>(i) * cols_, cols_};
  }

  value_t* data() noexcept { return data_.data(); }
  const value_t* data() const noexcept { return data_.data(); }
  std::span<value_t> span() noexcept { return data_; }
  std::span<const value_t> span() const noexcept { return data_; }

  void fill(value_t v) { std::fill(data_.begin(), data_.end(), v); }
  /// Fills with uniform values in [lo, hi) from `rng` (deterministic).
  void fill_random(Prng& rng, value_t lo = value_t{0}, value_t hi = value_t{1}) {
    for (auto& v : data_) v = rng.next_float(lo, hi);
  }

  /// Max |a-b| over all entries; matrices must have identical shape.
  static double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);
  /// Frobenius norm.
  double frobenius_norm() const;

  bool operator==(const DenseMatrix&) const = default;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<value_t, CacheLineAllocator<value_t>> data_;
};

/// Minimal dense N-order tensor (row-major generalisation); used by the
/// serial reference implementations and small-scale validation only.
class DenseTensor {
 public:
  DenseTensor() = default;
  explicit DenseTensor(std::vector<index_t> dims);

  int order() const noexcept { return static_cast<int>(dims_.size()); }
  index_t dim(int m) const {
    UST_EXPECTS(m >= 0 && m < order());
    return dims_[static_cast<std::size_t>(m)];
  }
  const std::vector<index_t>& dims() const noexcept { return dims_; }
  std::size_t size() const noexcept { return data_.size(); }

  value_t& at(std::span<const index_t> idx) { return data_[offset(idx)]; }
  value_t at(std::span<const index_t> idx) const { return data_[offset(idx)]; }

  std::span<value_t> span() noexcept { return data_; }
  std::span<const value_t> span() const noexcept { return data_; }

  double frobenius_norm() const;

 private:
  std::size_t offset(std::span<const index_t> idx) const;

  std::vector<index_t> dims_;
  std::vector<std::size_t> strides_;
  std::vector<value_t> data_;
};

}  // namespace ust
