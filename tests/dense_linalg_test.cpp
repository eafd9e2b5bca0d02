// Tests for DenseMatrix/DenseTensor and the linalg kernels backing CP/Tucker.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "linalg/dense_ops.hpp"
#include "linalg/eigen.hpp"
#include "linalg/solve.hpp"
#include "tensor/dense.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ust {
namespace {

DenseMatrix random_matrix(index_t r, index_t c, std::uint64_t seed, float lo = -1.0f,
                          float hi = 1.0f) {
  Prng rng(seed);
  DenseMatrix m(r, c);
  m.fill_random(rng, lo, hi);
  return m;
}

// The column-wise Gram solve solve_gram used before it went row-major:
// transpose, spd_solve per column, transpose back; the pseudo-inverse when
// V is not SPD. The row solve must reproduce it bit for bit.
DenseMatrix column_solve_gram(const DenseMatrix& v, const DenseMatrix& m) {
  if (auto x = linalg::spd_solve(v, linalg::transpose(m))) return linalg::transpose(*x);
  return linalg::matmul(m, linalg::pinv_symmetric(v));
}

// The serial row-order loops gram, column_norms and the CP fit ran before
// they were split into row blocks: a single-block matrix must reproduce them
// bit for bit.
std::vector<double> serial_gram_upper(const DenseMatrix& a) {
  const index_t r = a.cols();
  std::vector<double> acc(static_cast<std::size_t>(r) * r, 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (index_t p = 0; p < r; ++p) {
      const double v = row[p];
      if (v == 0.0) continue;
      for (index_t q = p; q < r; ++q) acc[static_cast<std::size_t>(p) * r + q] += v * row[q];
    }
  }
  return acc;
}

DenseMatrix serial_gram(const DenseMatrix& a) {
  const index_t r = a.cols();
  const auto acc = serial_gram_upper(a);
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

std::vector<double> serial_column_norms(const DenseMatrix& a) {
  std::vector<double> norms(a.cols(), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (index_t j = 0; j < a.cols(); ++j) norms[j] += static_cast<double>(row[j]) * row[j];
  }
  for (auto& n : norms) n = std::sqrt(n);
  return norms;
}

double serial_weighted_inner_product(const DenseMatrix& a, const DenseMatrix& b,
                                     std::span<const double> w) {
  double sum = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    const auto brow = b.row(i);
    for (index_t c = 0; c < a.cols(); ++c) sum += static_cast<double>(arow[c]) * brow[c] * w[c];
  }
  return sum;
}

std::vector<double> random_weights(index_t n, std::uint64_t seed) {
  Prng rng(seed);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.next_float(0.5f, 2.0f);
  return w;
}

TEST(DenseMatrix, BasicAccessAndRows) {
  DenseMatrix m(2, 3);
  m(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 5.0f);
  EXPECT_EQ(m.row(1).size(), 3u);
  EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
  EXPECT_EQ(m.byte_size(), 24u);
  EXPECT_THROW(m(2, 0), ContractViolation);
}

TEST(DenseMatrix, MaxAbsDiffAndNorm) {
  DenseMatrix a(2, 2), b(2, 2);
  a(0, 0) = 3.0f;
  a(1, 1) = 4.0f;
  EXPECT_NEAR(a.frobenius_norm(), 5.0, 1e-6);
  b(0, 0) = 3.5f;
  EXPECT_NEAR(DenseMatrix::max_abs_diff(a, b), 4.0, 1e-6);
}

// Native kernels gather factor rows straight from DenseMatrix storage; a
// rank-16 row is one cache line only when the storage is 64 B aligned.
TEST(DenseMatrix, StorageIsCacheLineAligned) {
  for (index_t rows : {1u, 3u, 1000u, 300000u}) {
    for (index_t cols : {1u, 5u, 16u}) {
      DenseMatrix m(rows, cols, 2.0f);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u) << rows << "x" << cols;
      const DenseMatrix copy = m;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(copy.data()) % 64, 0u);
      EXPECT_EQ(copy, m);
      const DenseMatrix moved = std::move(m);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) % 64, 0u);
      EXPECT_EQ(moved(rows - 1, cols - 1), 2.0f);
    }
  }
}

TEST(DenseTensor, OffsetsAndNorm) {
  DenseTensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  const std::vector<index_t> idx{1, 2, 3};
  t.at(idx) = 2.0f;
  EXPECT_FLOAT_EQ(t.at(idx), 2.0f);
  EXPECT_NEAR(t.frobenius_norm(), 2.0, 1e-6);
  const std::vector<index_t> bad{2, 0, 0};
  EXPECT_THROW(t.at(bad), ContractViolation);
}

TEST(Linalg, MatmulAgainstHandExample) {
  DenseMatrix a(2, 3), b(3, 2);
  float v = 1.0f;
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) a(i, j) = v++;
  }
  v = 1.0f;
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 2; ++j) b(i, j) = v++;
  }
  const DenseMatrix c = linalg::matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 28.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 49.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 64.0f);
}

TEST(Linalg, GramEqualsAtA) {
  const DenseMatrix a = random_matrix(20, 5, 3);
  const DenseMatrix g = linalg::gram(a);
  const DenseMatrix expect = linalg::matmul(linalg::transpose(a), a);
  EXPECT_LT(DenseMatrix::max_abs_diff(g, expect), 1e-4);
  // Symmetry.
  for (index_t p = 0; p < 5; ++p) {
    for (index_t q = 0; q < 5; ++q) EXPECT_FLOAT_EQ(g(p, q), g(q, p));
  }
}

TEST(Linalg, HadamardAndSubtract) {
  const DenseMatrix a = random_matrix(4, 4, 5);
  const DenseMatrix b = random_matrix(4, 4, 6);
  const DenseMatrix h = linalg::hadamard(a, b);
  const DenseMatrix d = linalg::subtract(a, b);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(h(i, j), a(i, j) * b(i, j));
      EXPECT_FLOAT_EQ(d(i, j), a(i, j) - b(i, j));
    }
  }
}

TEST(Linalg, KhatriRaoLayout) {
  // Row z of A (.) B must equal A(z / Jb, :) * B(z % Jb, :).
  const DenseMatrix a = random_matrix(3, 4, 7);
  const DenseMatrix b = random_matrix(5, 4, 8);
  const DenseMatrix k = linalg::khatri_rao(a, b);
  ASSERT_EQ(k.rows(), 15u);
  for (index_t z = 0; z < 15; ++z) {
    for (index_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(k(z, c), a(z / 5, c) * b(z % 5, c));
    }
  }
}

TEST(Linalg, KroneckerRow) {
  const std::vector<value_t> a{1.0f, 2.0f};
  const std::vector<value_t> b{3.0f, 4.0f, 5.0f};
  std::vector<value_t> out(6);
  linalg::kronecker_row(a, b, out);
  const std::vector<value_t> expect{3.0f, 4.0f, 5.0f, 6.0f, 8.0f, 10.0f};
  EXPECT_EQ(out, expect);
}

TEST(Linalg, ColumnNormsAndNormalize) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3.0f;
  a(1, 0) = 4.0f;
  a(0, 1) = 0.0f;
  a(1, 1) = 2.0f;
  const auto norms = linalg::column_norms(a);
  EXPECT_NEAR(norms[0], 5.0, 1e-6);
  EXPECT_NEAR(norms[1], 2.0, 1e-6);
  auto copy = a;
  const auto returned = linalg::normalize_columns(copy);
  EXPECT_NEAR(returned[0], 5.0, 1e-6);
  EXPECT_NEAR(copy(0, 0), 0.6, 1e-6);
  EXPECT_NEAR(copy(1, 0), 0.8, 1e-6);
  // Scale back restores the original.
  linalg::scale_columns(copy, returned);
  EXPECT_LT(DenseMatrix::max_abs_diff(copy, a), 1e-5);
}

TEST(Linalg, DotAndFrobenius) {
  const DenseMatrix a = random_matrix(6, 3, 9);
  EXPECT_NEAR(linalg::dot(a, a), linalg::frobenius_norm_squared(a), 1e-5);
}

TEST(Solve, CholeskyReconstructs) {
  // SPD matrix via A^T A + eps I.
  const DenseMatrix a = random_matrix(10, 4, 10);
  DenseMatrix spd = linalg::gram(a);
  for (index_t i = 0; i < 4; ++i) spd(i, i) += 0.5f;
  const auto l = linalg::cholesky(spd);
  ASSERT_TRUE(l.has_value());
  const DenseMatrix back = linalg::matmul(*l, linalg::transpose(*l));
  EXPECT_LT(DenseMatrix::max_abs_diff(back, spd), 1e-3);
}

TEST(Solve, CholeskyRejectsIndefinite) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1.0f;
  m(1, 1) = -1.0f;
  EXPECT_FALSE(linalg::cholesky(m).has_value());
}

TEST(Solve, SpdSolveSolvesSystem) {
  const DenseMatrix a = random_matrix(8, 3, 11);
  DenseMatrix spd = linalg::gram(a);
  for (index_t i = 0; i < 3; ++i) spd(i, i) += 1.0f;
  const DenseMatrix b = random_matrix(3, 2, 12);
  const auto x = linalg::spd_solve(spd, b);
  ASSERT_TRUE(x.has_value());
  const DenseMatrix ax = linalg::matmul(spd, *x);
  EXPECT_LT(DenseMatrix::max_abs_diff(ax, b), 1e-3);
}

TEST(Eigen, DiagonalizesSymmetricMatrix) {
  const DenseMatrix a = random_matrix(12, 6, 13);
  const DenseMatrix s = linalg::gram(a);
  const auto eig = linalg::jacobi_eigen_symmetric(s);
  // Descending eigenvalues.
  for (std::size_t i = 1; i < eig.values.size(); ++i) {
    EXPECT_GE(eig.values[i - 1], eig.values[i] - 1e-9);
  }
  // S v = lambda v for each pair.
  for (index_t k = 0; k < 6; ++k) {
    for (index_t i = 0; i < 6; ++i) {
      double sv = 0.0;
      for (index_t j = 0; j < 6; ++j) sv += static_cast<double>(s(i, j)) * eig.vectors(j, k);
      EXPECT_NEAR(sv, eig.values[k] * eig.vectors(i, k), 1e-3);
    }
  }
  // Orthonormal eigenvectors.
  const DenseMatrix vtv = linalg::gram(eig.vectors);
  for (index_t p = 0; p < 6; ++p) {
    for (index_t q = 0; q < 6; ++q) {
      EXPECT_NEAR(vtv(p, q), p == q ? 1.0 : 0.0, 1e-4);
    }
  }
}

TEST(Solve, PinvSymmetricInvertsFullRank) {
  const DenseMatrix a = random_matrix(9, 4, 14);
  DenseMatrix s = linalg::gram(a);
  for (index_t i = 0; i < 4; ++i) s(i, i) += 1.0f;
  const DenseMatrix pinv = linalg::pinv_symmetric(s);
  const DenseMatrix prod = linalg::matmul(s, pinv);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-3);
    }
  }
}

TEST(Solve, PinvSymmetricHandlesRankDeficiency) {
  // Rank-1 symmetric matrix: s = v v^T. pinv(s) s pinv(s) == pinv(s).
  DenseMatrix v(3, 1);
  v(0, 0) = 1.0f;
  v(1, 0) = 2.0f;
  v(2, 0) = 2.0f;
  const DenseMatrix s = linalg::matmul(v, linalg::transpose(v));
  const DenseMatrix p = linalg::pinv_symmetric(s);
  const DenseMatrix psp = linalg::matmul(p, linalg::matmul(s, p));
  EXPECT_LT(DenseMatrix::max_abs_diff(psp, p), 1e-4);
}

TEST(Solve, SolveGramMatchesDirectInverseWhenSpd) {
  const DenseMatrix a = random_matrix(10, 3, 15);
  DenseMatrix v = linalg::gram(a);
  for (index_t i = 0; i < 3; ++i) v(i, i) += 2.0f;
  const DenseMatrix m = random_matrix(7, 3, 16);
  const DenseMatrix x = linalg::solve_gram(v, m);   // = M pinv(V)
  const DenseMatrix expect = linalg::matmul(m, linalg::pinv_symmetric(v));
  EXPECT_LT(DenseMatrix::max_abs_diff(x, expect), 1e-3);
}

TEST(Solve, SolveGramMatchesColumnSolveBitwise) {
  ThreadPool pool(4);
  for (const index_t r : {1u, 3u, 8u, 16u, 17u, 33u}) {
    DenseMatrix v = linalg::gram(random_matrix(4 * r, r, 20 + r));
    for (index_t i = 0; i < r; ++i) v(i, i) += 0.1f;
    ASSERT_TRUE(linalg::cholesky(v).has_value()) << "R " << r;
    // Row counts off the 8-row group and the row block in every direction.
    for (const index_t rows : {1u, 7u, 8u, 2049u, 5000u}) {
      const DenseMatrix m = random_matrix(rows, r, 30 + rows * 64 + r);
      const DenseMatrix want = column_solve_gram(v, m);
      EXPECT_EQ(DenseMatrix::max_abs_diff(linalg::solve_gram(v, m), want), 0.0)
          << "R " << r << ", rows " << rows << ", serial";
      EXPECT_EQ(DenseMatrix::max_abs_diff(linalg::solve_gram(v, m, &pool), want), 0.0)
          << "R " << r << ", rows " << rows << ", pool";
    }
  }
}

TEST(Solve, SolveGramRankDeficientMatchesPseudoInverse) {
  // An exactly zero column makes V singular (V(R-1, R-1) == 0), so Cholesky
  // fails and both paths take the pseudo-inverse.
  DenseMatrix a = random_matrix(40, 6, 40);
  for (index_t i = 0; i < a.rows(); ++i) a(i, 5) = 0.0f;
  const DenseMatrix v = linalg::gram(a);
  ASSERT_FALSE(linalg::cholesky(v).has_value());
  ThreadPool pool(4);
  for (const index_t rows : {7u, 2049u}) {
    const DenseMatrix m = random_matrix(rows, 6, 41 + rows);
    const DenseMatrix want = column_solve_gram(v, m);
    EXPECT_EQ(DenseMatrix::max_abs_diff(linalg::solve_gram(v, m), want), 0.0) << rows;
    EXPECT_EQ(DenseMatrix::max_abs_diff(linalg::solve_gram(v, m, &pool), want), 0.0) << rows;
  }
}

TEST(Linalg, RowBlockReductionsIndependentOfPoolWidth) {
  // 10000 rows = 5 row blocks, the last one partial.
  const DenseMatrix a = random_matrix(10000, 16, 50);
  const DenseMatrix b = random_matrix(10000, 16, 51);
  const auto w = random_weights(16, 52);
  ASSERT_GT(linalg::row_block_count(a.rows()), 2u);

  const DenseMatrix g0 = linalg::gram(a);
  const auto n0 = linalg::column_norms(a);
  const double d0 = linalg::weighted_inner_product(a, b, w);
  DenseMatrix u0 = a;
  const auto l0 = linalg::normalize_columns(u0);
  for (const unsigned width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    EXPECT_EQ(linalg::gram(a, &pool), g0) << width;
    EXPECT_EQ(linalg::column_norms(a, &pool), n0) << width;
    EXPECT_EQ(linalg::weighted_inner_product(a, b, w, &pool), d0) << width;
    DenseMatrix u = a;
    EXPECT_EQ(linalg::normalize_columns(u, &pool), l0) << width;
    EXPECT_EQ(u, u0) << width;
  }

  // Block-order summation changes association, not the value.
  const auto upper = serial_gram_upper(a);
  for (index_t p = 0; p < 16; ++p) {
    for (index_t q = p; q < 16; ++q) {
      const double want = upper[static_cast<std::size_t>(p) * 16 + q];
      EXPECT_NEAR(g0(p, q), want, 1e-6 * std::abs(want)) << p << "," << q;
    }
  }
  const auto norms = serial_column_norms(a);
  for (index_t j = 0; j < 16; ++j) EXPECT_NEAR(n0[j], norms[j], 1e-6 * norms[j]) << j;
  const double dot = serial_weighted_inner_product(a, b, w);
  EXPECT_NEAR(d0, dot, 1e-6 * std::abs(dot));
}

TEST(Linalg, SingleBlockReductionsEqualSerialLoops) {
  const DenseMatrix a = random_matrix(linalg::kRowBlock - 3, 16, 60);
  const DenseMatrix b = random_matrix(linalg::kRowBlock - 3, 16, 61);
  const auto w = random_weights(16, 62);
  ASSERT_EQ(linalg::row_block_count(a.rows()), 1u);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_EQ(linalg::gram(a, p), serial_gram(a));
    EXPECT_EQ(linalg::column_norms(a, p), serial_column_norms(a));
    EXPECT_EQ(linalg::weighted_inner_product(a, b, w, p), serial_weighted_inner_product(a, b, w));
  }
}

}  // namespace
}  // namespace ust
