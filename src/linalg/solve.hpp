// Small dense solvers for the R x R systems in CP-ALS (line 2 of Algorithm 1
// applies the Moore-Penrose pseudo-inverse of B^T B * C^T C).
#pragma once

#include <optional>

#include "tensor/dense.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace ust::linalg {

/// Cholesky factorisation of a symmetric positive-definite matrix; returns
/// the lower factor L with A = L L^T, or nullopt if A is not (numerically)
/// positive definite.
std::optional<DenseMatrix> cholesky(const DenseMatrix& a);

/// Solves A X = B for SPD A via Cholesky; returns nullopt on failure.
std::optional<DenseMatrix> spd_solve(const DenseMatrix& a, const DenseMatrix& b);

/// Moore-Penrose pseudo-inverse of a symmetric matrix via its eigen
/// decomposition (Jacobi); singular values below `rcond * max_sv` are
/// treated as zero. This is the robust path used when the Gram product in
/// CP-ALS is rank deficient (e.g. rank > smallest mode size, the brainq
/// situation the paper discusses in Section V-E).
DenseMatrix pinv_symmetric(const DenseMatrix& a, double rcond = 1e-10);

/// X = B * pinv(A) for symmetric A: the CP-ALS update applied row-wise.
/// Uses Cholesky when A is SPD, otherwise the eigen pseudo-inverse. The SPD
/// path solves each row of B in place (forward then backward substitution,
/// double accumulate, float store), in kRowBlock-row blocks on `pool` when
/// non-null. Each row's operation order is that of spd_solve on B^T, so the
/// result is bitwise identical to transpose(spd_solve(a, transpose(b))) for
/// any pool width. Pass B as an rvalue to reuse its storage for X.
DenseMatrix solve_gram(const DenseMatrix& a, DenseMatrix b, ThreadPool* pool = nullptr);

}  // namespace ust::linalg
