// Dense matrix kernels backing the CP/Tucker drivers: the paper offloads
// these to CUBLAS on a second stream; UST implements them directly. The
// matrices are tall-skinny (I x R) or tiny (R x R). The kernels on the
// CP-ALS critical path (gram, column_norms, normalize_columns,
// weighted_inner_product, and solve_gram in solve.hpp) walk contiguous rows
// in fixed blocks of kRowBlock rows, optionally spread over a ThreadPool.
// Each reduction keeps one double partial per block and sums the partials
// in block order on the caller, so the result depends on neither the pool
// width nor the scheduling, and a single-block matrix gives exactly the
// serial row-order sum (DESIGN.md §16).
#pragma once

#include <functional>

#include "tensor/dense.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace ust::linalg {

/// Rows per block of the fixed row partition shared by the pool-parallel
/// kernels. Part of the numeric contract: a reduction's bits depend on it.
inline constexpr index_t kRowBlock = 2048;

/// Number of kRowBlock-row blocks covering `rows` rows.
inline std::size_t row_block_count(index_t rows) {
  return ceil_div<std::size_t>(rows, kRowBlock);
}

/// Runs body(block, begin, end) for every row block of a `rows`-row matrix:
/// on `pool` when non-null (blocks in any order, possibly concurrently),
/// else serially in block order on the caller.
void for_each_row_block(index_t rows, ThreadPool* pool,
                        const std::function<void(std::size_t, index_t, index_t)>& body);

/// C = A * B (rows_a x cols_a) * (cols_a x cols_b).
DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

/// Gram matrix A^T * A (R x R), accumulated in double per row block.
DenseMatrix gram(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// Elementwise (Hadamard) product; shapes must match.
DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b);

/// Transpose.
DenseMatrix transpose(const DenseMatrix& a);

/// Khatri-Rao product A (.) B: (I x R, J x R) -> (I*J x R), row (i*J + j) =
/// A(i,:) * B(j,:). Reference implementation -- the unified kernels never
/// materialise this (that is the point of the one-shot method), but tests
/// and the naive oracle use it.
DenseMatrix khatri_rao(const DenseMatrix& a, const DenseMatrix& b);

/// Kronecker product of two row vectors a (len n) and b (len m) -> len n*m.
void kronecker_row(std::span<const value_t> a, std::span<const value_t> b,
                   std::span<value_t> out);

/// Euclidean norms of each column, accumulated in double per row block.
std::vector<double> column_norms(const DenseMatrix& a, ThreadPool* pool = nullptr);

/// Normalises columns to unit norm, returning the norms; zero-norm columns
/// are left untouched with norm reported as 0 (caller decides policy).
std::vector<double> normalize_columns(DenseMatrix& a, ThreadPool* pool = nullptr);

/// Scales column j by s[j].
void scale_columns(DenseMatrix& a, std::span<const double> s);

/// out = a - b (shapes must match).
DenseMatrix subtract(const DenseMatrix& a, const DenseMatrix& b);

/// Sum of squares of all entries (double).
double frobenius_norm_squared(const DenseMatrix& a);

/// Dot product of all entries of two same-shape matrices (double).
double dot(const DenseMatrix& a, const DenseMatrix& b);

/// sum_{i,c} a(i,c) * b(i,c) * w[c] over two same-shape matrices, in double
/// per row block: the <X, model> term of the CP-ALS fit (a = MTTKRP output,
/// b = last factor, w = lambda).
double weighted_inner_product(const DenseMatrix& a, const DenseMatrix& b,
                              std::span<const double> w, ThreadPool* pool = nullptr);

}  // namespace ust::linalg
