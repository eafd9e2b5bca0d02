#include "linalg/solve.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/dense_ops.hpp"
#include "linalg/eigen.hpp"

namespace ust::linalg {

namespace {

/// Rows solved side by side. One row's substitution is a chain of dependent
/// subtracts; running a group of rows in lockstep puts the independent work
/// in the innermost loop, where it vectorises across rows.
constexpr index_t kSolveGroup = 8;

/// Solves `count` (<= kSolveGroup) consecutive rows of `rows` (n floats each)
/// in place: forward substitution with L, then backward with L^T. `lower`
/// is L and `upper` is L^T, both row-major in double; `xs` is n *
/// kSolveGroup floats of scratch holding the group column-interleaved. The
/// per-row operation order matches spd_solve on the transposed rows.
void solve_row_group(const double* lower, const double* upper, index_t n, value_t* rows,
                     index_t count, value_t* xs) {
  constexpr index_t G = kSolveGroup;
  for (index_t k = 0; k < n; ++k) {
    for (index_t g = 0; g < G; ++g) {
      xs[k * G + g] = g < count ? rows[static_cast<std::size_t>(g) * n + k] : value_t{0};
    }
  }
  double sum[G] = {};
  for (index_t i = 0; i < n; ++i) {
    const double* li = lower + static_cast<std::size_t>(i) * n;
    for (index_t g = 0; g < G; ++g) sum[g] = xs[i * G + g];
    for (index_t k = 0; k < i; ++k) {
      const double lik = li[k];
      const value_t* xk = xs + k * G;
      for (index_t g = 0; g < G; ++g) sum[g] -= lik * xk[g];
    }
    const double d = li[i];
    for (index_t g = 0; g < G; ++g) xs[i * G + g] = static_cast<value_t>(sum[g] / d);
  }
  for (index_t i = n; i-- > 0;) {
    const double* ui = upper + static_cast<std::size_t>(i) * n;
    for (index_t g = 0; g < G; ++g) sum[g] = xs[i * G + g];
    for (index_t k = i + 1; k < n; ++k) {
      const double lki = ui[k];
      const value_t* xk = xs + k * G;
      for (index_t g = 0; g < G; ++g) sum[g] -= lki * xk[g];
    }
    const double d = ui[i];
    for (index_t g = 0; g < G; ++g) xs[i * G + g] = static_cast<value_t>(sum[g] / d);
  }
  for (index_t g = 0; g < count; ++g) {
    for (index_t k = 0; k < n; ++k) rows[static_cast<std::size_t>(g) * n + k] = xs[k * G + g];
  }
}

}  // namespace

std::optional<DenseMatrix> cholesky(const DenseMatrix& a) {
  UST_EXPECTS(a.rows() == a.cols());
  const index_t n = a.rows();
  DenseMatrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (index_t k = 0; k < j; ++k) diag -= static_cast<double>(l(j, k)) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = static_cast<value_t>(ljj);
    for (index_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (index_t k = 0; k < j; ++k) sum -= static_cast<double>(l(i, k)) * l(j, k);
      l(i, j) = static_cast<value_t>(sum / ljj);
    }
  }
  return l;
}

std::optional<DenseMatrix> spd_solve(const DenseMatrix& a, const DenseMatrix& b) {
  UST_EXPECTS(a.rows() == a.cols());
  UST_EXPECTS(a.rows() == b.rows());
  auto chol = cholesky(a);
  if (!chol) return std::nullopt;
  const DenseMatrix& l = *chol;
  const index_t n = a.rows();
  const index_t m = b.cols();
  // Forward solve L Y = B, then backward solve L^T X = Y.
  DenseMatrix x = b;
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i < n; ++i) {
      double sum = x(i, j);
      for (index_t k = 0; k < i; ++k) sum -= static_cast<double>(l(i, k)) * x(k, j);
      x(i, j) = static_cast<value_t>(sum / l(i, i));
    }
    for (index_t ii = n; ii-- > 0;) {
      double sum = x(ii, j);
      for (index_t k = ii + 1; k < n; ++k) sum -= static_cast<double>(l(k, ii)) * x(k, j);
      x(ii, j) = static_cast<value_t>(sum / l(ii, ii));
    }
  }
  return x;
}

DenseMatrix pinv_symmetric(const DenseMatrix& a, double rcond) {
  UST_EXPECTS(a.rows() == a.cols());
  const auto eig = jacobi_eigen_symmetric(a);
  const index_t n = a.rows();
  double max_abs = 0.0;
  for (double ev : eig.values) max_abs = std::max(max_abs, std::abs(ev));
  const double cutoff = rcond * max_abs;
  // pinv(A) = V diag(1/lambda_i where |lambda_i| > cutoff) V^T.
  DenseMatrix result(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (index_t k = 0; k < n; ++k) {
        const double ev = eig.values[k];
        if (std::abs(ev) <= cutoff) continue;
        sum += static_cast<double>(eig.vectors(i, k)) * eig.vectors(j, k) / ev;
      }
      result(i, j) = static_cast<value_t>(sum);
    }
  }
  return result;
}

DenseMatrix solve_gram(const DenseMatrix& a, DenseMatrix b, ThreadPool* pool) {
  UST_EXPECTS(a.rows() == a.cols());
  UST_EXPECTS(b.cols() == a.rows());
  // B has shape I x R, A is R x R; we want B * pinv(A). When A = L L^T is
  // SPD, row x of X solves A x^T = b^T (A^-1 is symmetric), i.e. L z = b^T
  // then L^T x^T = z, one row at a time.
  const auto chol = cholesky(a);
  if (!chol) return matmul(b, pinv_symmetric(a));
  const index_t n = a.rows();
  std::vector<double> lower(static_cast<std::size_t>(n) * n);
  std::vector<double> upper(lower.size());
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = 0; k <= i; ++k) {
      lower[static_cast<std::size_t>(i) * n + k] = (*chol)(i, k);
      upper[static_cast<std::size_t>(k) * n + i] = (*chol)(i, k);
    }
  }
  for_each_row_block(b.rows(), pool, [&](std::size_t, index_t begin, index_t end) {
    std::vector<value_t> xs(static_cast<std::size_t>(n) * kSolveGroup);
    for (index_t r = begin; r < end; r += kSolveGroup) {
      solve_row_group(lower.data(), upper.data(), n, b.data() + static_cast<std::size_t>(r) * n,
                      std::min(kSolveGroup, end - r), xs.data());
    }
  });
  return b;
}

}  // namespace ust::linalg
