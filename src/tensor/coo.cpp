#include "tensor/coo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_set>

namespace ust {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
}

}  // namespace

CooTensor::CooTensor(std::vector<index_t> dims) : dims_(std::move(dims)) {
  UST_EXPECTS(!dims_.empty());
  for (index_t d : dims_) UST_EXPECTS(d > 0);
  idx_.resize(dims_.size());
}

CooTensor::CooTensor(const CooTensor& other)
    : dims_(other.dims_),
      idx_(other.idx_),
      vals_(other.vals_),
      content_id_(other.content_id_.load(std::memory_order_relaxed)) {}

CooTensor::CooTensor(CooTensor&& other) noexcept
    : dims_(std::move(other.dims_)),
      idx_(std::move(other.idx_)),
      vals_(std::move(other.vals_)),
      content_id_(other.content_id_.exchange(0, std::memory_order_relaxed)) {}

CooTensor& CooTensor::operator=(const CooTensor& other) {
  if (this == &other) return *this;
  dims_ = other.dims_;
  idx_ = other.idx_;
  vals_ = other.vals_;
  content_id_.store(other.content_id_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

CooTensor& CooTensor::operator=(CooTensor&& other) noexcept {
  if (this == &other) return *this;
  dims_ = std::move(other.dims_);
  idx_ = std::move(other.idx_);
  vals_ = std::move(other.vals_);
  content_id_.store(other.content_id_.exchange(0, std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

std::uint64_t CooTensor::content_id() const {
  std::uint64_t id = content_id_.load(std::memory_order_relaxed);
  if (id != 0) return id;
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(order()));
  for (index_t d : dims_) mix(h, d);
  mix(h, nnz());
  for (const auto& col : idx_) {
    for (index_t i : col) mix(h, i);
  }
  for (value_t v : vals_) {
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    mix(h, bits);
  }
  id = h != 0 ? h : 1;  // 0 is the "not computed" sentinel
  // Concurrent const callers may both get here; they store the same value.
  content_id_.store(id, std::memory_order_relaxed);
  return id;
}

double CooTensor::density() const {
  double cells = 1.0;
  for (index_t d : dims_) cells *= static_cast<double>(d);
  return cells == 0.0 ? 0.0 : static_cast<double>(nnz()) / cells;
}

void CooTensor::reserve(nnz_t n) {
  forget_content_id();
  for (auto& v : idx_) v.reserve(n);
  vals_.reserve(n);
}

void CooTensor::push_back(std::span<const index_t> idx, value_t v) {
  UST_EXPECTS(idx.size() == dims_.size());
  forget_content_id();
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    UST_EXPECTS(idx[m] < dims_[m]);
    idx_[m].push_back(idx[m]);
  }
  vals_.push_back(v);
}

void CooTensor::sort_by_modes(std::span<const int> mode_order) {
  UST_EXPECTS(static_cast<int>(mode_order.size()) == order());
  forget_content_id();
  const nnz_t n = nnz();
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (int m : mode_order) {
      const auto& col = idx_[static_cast<std::size_t>(m)];
      if (col[a] != col[b]) return col[a] < col[b];
    }
    return false;
  });
  // Apply the permutation out of place (simple and cache-friendly for the
  // sizes used here).
  for (auto& col : idx_) {
    std::vector<index_t> tmp(n);
    for (nnz_t i = 0; i < n; ++i) tmp[i] = col[perm[i]];
    col = std::move(tmp);
  }
  std::vector<value_t> tmp(n);
  for (nnz_t i = 0; i < n; ++i) tmp[i] = vals_[perm[i]];
  vals_ = std::move(tmp);
}

bool CooTensor::is_sorted_by(std::span<const int> mode_order) const {
  UST_EXPECTS(static_cast<int>(mode_order.size()) == order());
  for (nnz_t x = 1; x < nnz(); ++x) {
    for (int m : mode_order) {
      const auto& col = idx_[static_cast<std::size_t>(m)];
      if (col[x - 1] < col[x]) break;
      if (col[x - 1] > col[x]) return false;
    }
  }
  return true;
}

nnz_t CooTensor::coalesce() {
  forget_content_id();
  const nnz_t n = nnz();
  if (n == 0) return 0;
  auto same_coord = [&](nnz_t a, nnz_t b) {
    for (const auto& col : idx_) {
      if (col[a] != col[b]) return false;
    }
    return true;
  };
  nnz_t write = 0;
  for (nnz_t read = 0; read < n; ++read) {
    if (write > 0 && same_coord(write - 1, read)) {
      vals_[write - 1] += vals_[read];
      continue;
    }
    if (write != read) {
      for (auto& col : idx_) col[write] = col[read];
      vals_[write] = vals_[read];
    }
    ++write;
  }
  // Drop explicit zeros produced by cancellation.
  nnz_t keep = 0;
  for (nnz_t x = 0; x < write; ++x) {
    if (vals_[x] == value_t{0}) continue;
    if (keep != x) {
      for (auto& col : idx_) col[keep] = col[x];
      vals_[keep] = vals_[x];
    }
    ++keep;
  }
  for (auto& col : idx_) col.resize(keep);
  vals_.resize(keep);
  return n - keep;
}

nnz_t CooTensor::count_distinct(std::span<const int> fixed_modes) const {
  UST_EXPECTS(!fixed_modes.empty());
  // Hash the fixed-mode tuple of each non-zero. 64-bit mixing of up to a few
  // 32-bit coordinates is collision-safe for the sizes involved here.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(nnz()));
  for (nnz_t x = 0; x < nnz(); ++x) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int m : fixed_modes) {
      h ^= idx_[static_cast<std::size_t>(m)][x] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
    }
    seen.insert(h);
  }
  return seen.size();
}

double CooTensor::frobenius_norm() const {
  double sum = 0.0;
  for (value_t v : vals_) sum += static_cast<double>(v) * v;
  return std::sqrt(sum);
}

std::string CooTensor::describe() const {
  std::string s;
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    if (m != 0) s += " x ";
    s += std::to_string(dims_[m]);
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, ", nnz=%llu, density=%.2e",
                static_cast<unsigned long long>(nnz()), density());
  return s + buf;
}

void CooTensor::validate() const {
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    UST_ENSURES(idx_[m].size() == vals_.size());
    for (index_t v : idx_[m]) UST_ENSURES(v < dims_[m]);
  }
}

std::vector<int> modes_front(int order, std::span<const int> front_modes) {
  UST_EXPECTS(order >= 1);
  std::vector<bool> in_front(static_cast<std::size_t>(order), false);
  std::vector<int> result;
  result.reserve(static_cast<std::size_t>(order));
  for (int m : front_modes) {
    UST_EXPECTS(m >= 0 && m < order);
    UST_EXPECTS(!in_front[static_cast<std::size_t>(m)]);
    in_front[static_cast<std::size_t>(m)] = true;
    result.push_back(m);
  }
  for (int m = 0; m < order; ++m) {
    if (!in_front[static_cast<std::size_t>(m)]) result.push_back(m);
  }
  return result;
}

}  // namespace ust
