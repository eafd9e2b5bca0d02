#include "linalg/dense_ops.hpp"

#include <algorithm>
#include <cmath>

namespace ust::linalg {

namespace {

/// Runs partial(begin, end, acc) for every row block into a zeroed
/// `width`-double scratch, keeps one partial per block, and sums the
/// partials in block order. The first block's partial is taken as is, so a
/// single-block matrix yields the serial row-order sum bit for bit.
std::vector<double> block_reduce(index_t rows, std::size_t width, ThreadPool* pool,
                                 const std::function<void(index_t, index_t, double*)>& partial) {
  const std::size_t blocks = row_block_count(rows);
  if (blocks == 0) return std::vector<double>(width, 0.0);
  std::vector<double> partials(blocks * width);
  for_each_row_block(rows, pool, [&](std::size_t b, index_t begin, index_t end) {
    // Accumulate in block-private scratch: neighbouring blocks' slots in
    // `partials` may share a cache line.
    std::vector<double> acc(width, 0.0);
    partial(begin, end, acc.data());
    std::copy(acc.begin(), acc.end(), partials.begin() + static_cast<std::ptrdiff_t>(b * width));
  });
  std::vector<double> total(partials.begin(), partials.begin() + static_cast<std::ptrdiff_t>(width));
  for (std::size_t b = 1; b < blocks; ++b) {
    for (std::size_t k = 0; k < width; ++k) total[k] += partials[b * width + k];
  }
  return total;
}

}  // namespace

void for_each_row_block(index_t rows, ThreadPool* pool,
                        const std::function<void(std::size_t, index_t, index_t)>& body) {
  const auto run = [&](std::size_t b) {
    const std::size_t begin = b * kRowBlock;
    const std::size_t end = std::min<std::size_t>(rows, begin + kRowBlock);
    body(b, static_cast<index_t>(begin), static_cast<index_t>(end));
  };
  const std::size_t blocks = row_block_count(rows);
  if (pool == nullptr) {
    for (std::size_t b = 0; b < blocks; ++b) run(b);
    return;
  }
  pool->parallel_for(blocks, 1, run);
}

DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b) {
  UST_EXPECTS(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    auto crow = c.row(i);
    for (index_t k = 0; k < a.cols(); ++k) {
      const value_t aik = arow[k];
      if (aik == value_t{0}) continue;
      const auto brow = b.row(k);
      for (index_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

DenseMatrix gram(const DenseMatrix& a, ThreadPool* pool) {
  const index_t r = a.cols();
  const std::vector<double> acc = block_reduce(
      a.rows(), static_cast<std::size_t>(r) * r, pool,
      [&a, r](index_t begin, index_t end, double* part) {
        for (index_t i = begin; i < end; ++i) {
          const value_t* row = a.data() + static_cast<std::size_t>(i) * r;
          for (index_t p = 0; p < r; ++p) {
            const double v = row[p];
            if (v == 0.0) continue;
            double* prow = part + static_cast<std::size_t>(p) * r;
            for (index_t q = p; q < r; ++q) prow[q] += v * row[q];
          }
        }
      });
  DenseMatrix g(r, r);
  for (index_t p = 0; p < r; ++p) {
    for (index_t q = p; q < r; ++q) {
      const auto v = static_cast<value_t>(acc[static_cast<std::size_t>(p) * r + q]);
      g(p, q) = v;
      g(q, p) = v;
    }
  }
  return g;
}

DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b) {
  UST_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  DenseMatrix c(a.rows(), a.cols());
  const auto sa = a.span();
  const auto sb = b.span();
  auto sc = c.span();
  for (std::size_t i = 0; i < sa.size(); ++i) sc[i] = sa[i] * sb[i];
  return c;
}

DenseMatrix transpose(const DenseMatrix& a) {
  DenseMatrix t(a.cols(), a.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

DenseMatrix khatri_rao(const DenseMatrix& a, const DenseMatrix& b) {
  UST_EXPECTS(a.cols() == b.cols());
  const index_t r = a.cols();
  DenseMatrix k(static_cast<index_t>(static_cast<std::size_t>(a.rows()) * b.rows()), r);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    for (index_t j = 0; j < b.rows(); ++j) {
      const auto brow = b.row(j);
      auto krow = k.row(static_cast<index_t>(static_cast<std::size_t>(i) * b.rows() + j));
      for (index_t c = 0; c < r; ++c) krow[c] = arow[c] * brow[c];
    }
  }
  return k;
}

void kronecker_row(std::span<const value_t> a, std::span<const value_t> b,
                   std::span<value_t> out) {
  UST_EXPECTS(out.size() == a.size() * b.size());
  std::size_t o = 0;
  for (value_t av : a) {
    for (value_t bv : b) out[o++] = av * bv;
  }
}

std::vector<double> column_norms(const DenseMatrix& a, ThreadPool* pool) {
  const index_t r = a.cols();
  std::vector<double> norms =
      block_reduce(a.rows(), r, pool, [&a, r](index_t begin, index_t end, double* part) {
        for (index_t i = begin; i < end; ++i) {
          const value_t* row = a.data() + static_cast<std::size_t>(i) * r;
          for (index_t j = 0; j < r; ++j) part[j] += static_cast<double>(row[j]) * row[j];
        }
      });
  for (auto& n : norms) n = std::sqrt(n);
  return norms;
}

std::vector<double> normalize_columns(DenseMatrix& a, ThreadPool* pool) {
  auto norms = column_norms(a, pool);
  const index_t r = a.cols();
  for_each_row_block(a.rows(), pool, [&a, &norms, r](std::size_t, index_t begin, index_t end) {
    for (index_t i = begin; i < end; ++i) {
      value_t* row = a.data() + static_cast<std::size_t>(i) * r;
      for (index_t j = 0; j < r; ++j) {
        if (norms[j] > 0.0) row[j] = static_cast<value_t>(row[j] / norms[j]);
      }
    }
  });
  return norms;
}

void scale_columns(DenseMatrix& a, std::span<const double> s) {
  UST_EXPECTS(s.size() == a.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    auto row = a.row(i);
    for (index_t j = 0; j < a.cols(); ++j) row[j] = static_cast<value_t>(row[j] * s[j]);
  }
}

DenseMatrix subtract(const DenseMatrix& a, const DenseMatrix& b) {
  UST_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  DenseMatrix c(a.rows(), a.cols());
  const auto sa = a.span();
  const auto sb = b.span();
  auto sc = c.span();
  for (std::size_t i = 0; i < sa.size(); ++i) sc[i] = sa[i] - sb[i];
  return c;
}

double frobenius_norm_squared(const DenseMatrix& a) {
  double sum = 0.0;
  for (value_t v : a.span()) sum += static_cast<double>(v) * v;
  return sum;
}

double dot(const DenseMatrix& a, const DenseMatrix& b) {
  UST_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double sum = 0.0;
  const auto sa = a.span();
  const auto sb = b.span();
  for (std::size_t i = 0; i < sa.size(); ++i) sum += static_cast<double>(sa[i]) * sb[i];
  return sum;
}

double weighted_inner_product(const DenseMatrix& a, const DenseMatrix& b,
                              std::span<const double> w, ThreadPool* pool) {
  UST_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  UST_EXPECTS(w.size() == a.cols());
  const index_t r = a.cols();
  return block_reduce(a.rows(), 1, pool, [&a, &b, w, r](index_t begin, index_t end, double* part) {
    double sum = 0.0;
    for (index_t i = begin; i < end; ++i) {
      const value_t* arow = a.data() + static_cast<std::size_t>(i) * r;
      const value_t* brow = b.data() + static_cast<std::size_t>(i) * r;
      for (index_t c = 0; c < r; ++c) sum += static_cast<double>(arow[c]) * brow[c] * w[c];
    }
    *part = sum;
  })[0];
}

}  // namespace ust::linalg
