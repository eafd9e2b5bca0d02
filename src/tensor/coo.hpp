// Coordinate (COO) sparse tensor: the general-purpose N-order format every
// other format in UST is constructed from. Stores one index array per mode
// plus a value array (structure-of-arrays), matching the layout the paper's
// Table II charges at 16 bytes/nnz for a 3-order tensor.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace ust {

/// Content identity (DESIGN.md §9): content_id() hashes dims, nnz, every
/// index array and the raw value bits on first use and memoises the result,
/// so plan caches key on a tensor in O(1) after the first lookup. Every
/// non-const member clears the memo -- including the non-const
/// mode_indices(m) and values() accessors, which hand out writable spans.
/// Held-span rule (as for iterator invalidation): a mutable span obtained
/// before a content_id() call must not be written through after it; take
/// the span again, which clears the memo. A copy keeps the id, a moved-from
/// tensor loses it.
class CooTensor {
 public:
  CooTensor() = default;
  /// Creates an empty tensor with the given mode sizes.
  explicit CooTensor(std::vector<index_t> dims);
  CooTensor(const CooTensor& other);
  CooTensor(CooTensor&& other) noexcept;
  CooTensor& operator=(const CooTensor& other);
  CooTensor& operator=(CooTensor&& other) noexcept;
  ~CooTensor() = default;

  int order() const noexcept { return static_cast<int>(dims_.size()); }
  index_t dim(int m) const {
    UST_EXPECTS(m >= 0 && m < order());
    return dims_[static_cast<std::size_t>(m)];
  }
  const std::vector<index_t>& dims() const noexcept { return dims_; }
  nnz_t nnz() const noexcept { return vals_.size(); }

  /// Fraction of non-zero positions (nnz / prod(dims)), as in Table IV.
  double density() const;

  void reserve(nnz_t n);
  /// Appends one non-zero; idx.size() must equal order().
  void push_back(std::span<const index_t> idx, value_t v);

  std::span<const index_t> mode_indices(int m) const {
    UST_EXPECTS(m >= 0 && m < order());
    return idx_[static_cast<std::size_t>(m)];
  }
  std::span<index_t> mode_indices(int m) {
    UST_EXPECTS(m >= 0 && m < order());
    forget_content_id();
    return idx_[static_cast<std::size_t>(m)];
  }
  std::span<const value_t> values() const noexcept { return vals_; }
  std::span<value_t> values() noexcept {
    forget_content_id();
    return vals_;
  }

  index_t index(nnz_t x, int m) const { return idx_[static_cast<std::size_t>(m)][x]; }
  value_t value(nnz_t x) const { return vals_[x]; }

  /// Lexicographically sorts non-zeros by the given mode priority order
  /// (mode_order[0] is the most significant key). mode_order must be a
  /// permutation of {0..order-1}.
  void sort_by_modes(std::span<const int> mode_order);
  /// True if non-zeros are sorted lexicographically by mode_order.
  bool is_sorted_by(std::span<const int> mode_order) const;

  /// Sums duplicate coordinates (requires any lexicographic sort first) and
  /// drops explicit zeros. Returns the number of entries removed.
  nnz_t coalesce();

  /// Number of distinct non-empty fibers when fixing `fixed_modes` (i.e.
  /// distinct tuples over those modes). Requires no particular order.
  nnz_t count_distinct(std::span<const int> fixed_modes) const;

  /// Frobenius norm of the tensor.
  double frobenius_norm() const;

  /// COO storage footprint in bytes (order * 4 + 4 per nnz), Table II.
  std::size_t storage_bytes() const {
    return nnz() * (static_cast<std::size_t>(order()) * sizeof(index_t) + sizeof(value_t));
  }

  /// Human-readable "I x J x K, nnz=..., density=..." description.
  std::string describe() const;

  /// Validates all indices are within bounds; throws ContractViolation.
  void validate() const;

  /// Content fingerprint: FNV-1a over order, dims, nnz, every index array and
  /// the raw value bits, computed on the first call after construction or
  /// the last mutation and memoised (never 0). Equal ids are treated as
  /// equal content by the plan caches. Safe to call from concurrent const
  /// readers: racers compute the same value, and the memo is an atomic.
  std::uint64_t content_id() const;
  /// True when content_id() is memoised, i.e. the next call is O(1).
  bool has_content_id() const noexcept {
    return content_id_.load(std::memory_order_relaxed) != 0;
  }

 private:
  void forget_content_id() noexcept { content_id_.store(0, std::memory_order_relaxed); }

  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> idx_;  // idx_[mode][nonzero]
  std::vector<value_t> vals_;
  /// Memoised content_id(); 0 = not computed since the last mutation.
  mutable std::atomic<std::uint64_t> content_id_{0};
};

/// Returns {0,..,order-1} with `front_modes` moved to the front, preserving
/// the relative order of the rest; used to build sort orders like
/// (index modes..., product modes...).
std::vector<int> modes_front(int order, std::span<const int> front_modes);

}  // namespace ust
