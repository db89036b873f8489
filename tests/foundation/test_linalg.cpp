#include "linalg/decompose.h"
#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

namespace w4k::linalg {
namespace {

using namespace std::complex_literals;

TEST(CVector, NormOfKnownVector) {
  CVector v{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_sq(), 25.0);
}

TEST(CVector, NormalizedHasUnitNorm) {
  CVector v{{1.0, 2.0}, {-3.0, 0.5}, {0.0, 1.0}};
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-14);
}

TEST(CVector, NormalizeZeroThrows) {
  CVector v(3);
  EXPECT_THROW(v.normalized(), std::domain_error);
}

TEST(CVector, ConjNegatesImaginary) {
  CVector v{{1.0, 2.0}};
  EXPECT_EQ(v.conj()[0], Complex(1.0, -2.0));
}

TEST(CVector, ArithmeticOperators) {
  CVector a{{1.0, 0.0}, {2.0, 0.0}};
  CVector b{{0.5, 0.0}, {-1.0, 0.0}};
  const CVector sum = a + b;
  EXPECT_EQ(sum[0], Complex(1.5, 0.0));
  EXPECT_EQ(sum[1], Complex(1.0, 0.0));
  const CVector scaled = a * Complex(2.0, 0.0);
  EXPECT_EQ(scaled[1], Complex(4.0, 0.0));
}

TEST(CVector, SizeMismatchThrows) {
  CVector a(2), b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(CVector, DotConjugatesFirstArgument) {
  CVector a{{0.0, 1.0}};  // i
  CVector b{{0.0, 1.0}};  // i
  // <a, b> = conj(i) * i = 1.
  EXPECT_EQ(dot(a, b), Complex(1.0, 0.0));
}

TEST(CMatrix, IdentityMultiplication) {
  const CMatrix id = CMatrix::identity(3);
  CVector v{{1.0, 1.0}, {2.0, -1.0}, {0.0, 3.0}};
  const CVector w = id * v;
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(w[i], v[i]);
}

TEST(CMatrix, HermitianTransposesAndConjugates) {
  CMatrix m(2, 3);
  m(0, 1) = Complex(1.0, 2.0);
  const CMatrix h = m.hermitian();
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 2u);
  EXPECT_EQ(h(1, 0), Complex(1.0, -2.0));
}

TEST(CMatrix, MatrixProductKnownValue) {
  CMatrix a(2, 2), b(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 3.0; a(1, 1) = 4.0;
  b(0, 0) = 5.0; b(0, 1) = 6.0; b(1, 0) = 7.0; b(1, 1) = 8.0;
  const CMatrix c = a * b;
  EXPECT_EQ(c(0, 0), Complex(19.0, 0.0));
  EXPECT_EQ(c(1, 1), Complex(50.0, 0.0));
}

TEST(CMatrix, DimensionMismatchThrows) {
  CMatrix a(2, 3);
  CVector v(2);
  EXPECT_THROW(a * v, std::invalid_argument);
}

TEST(CMatrix, FromRowsRoundTrip) {
  CVector r0{{1.0, 0.0}, {2.0, 0.0}};
  CVector r1{{3.0, 0.0}, {4.0, 0.0}};
  const CMatrix m = CMatrix::from_rows({r0, r1});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.row(0)[1], Complex(2.0, 0.0));
  EXPECT_EQ(m.col(0)[1], Complex(3.0, 0.0));
}

TEST(CMatrix, FrobeniusNorm) {
  CMatrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

// --- Decompositions ---------------------------------------------------------

TEST(DominantSVD, RankOneMatrixRecovered) {
  // A = sigma * u v^H: the dominant right singular vector is v.
  CVector v{{0.6, 0.0}, {0.0, 0.8}};
  CMatrix a(1, 2);
  a(0, 0) = std::conj(v[0]) * 5.0;
  a(0, 1) = std::conj(v[1]) * 5.0;
  Rng rng(1);
  const auto svd = dominant_right_singular(a, rng);
  EXPECT_NEAR(svd.singular_value, 5.0, 1e-9);
  // Alignment up to a global phase.
  EXPECT_NEAR(std::abs(dot(svd.right_singular, v)), 1.0, 1e-9);
}

TEST(DominantSVD, MaximizesResponseOverRandomVectors) {
  Rng rng(2);
  CMatrix a(3, 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      a(r, c) = Complex(rng.gaussian(), rng.gaussian());
  const auto svd = dominant_right_singular(a, rng);
  const double best = (a * svd.right_singular).norm();
  for (int trial = 0; trial < 200; ++trial) {
    CVector v(4);
    for (std::size_t i = 0; i < 4; ++i)
      v[i] = Complex(rng.gaussian(), rng.gaussian());
    EXPECT_LE((a * v.normalized()).norm(), best + 1e-6);
  }
}

TEST(DominantSVD, ZeroMatrix) {
  CMatrix a(2, 2);
  Rng rng(3);
  const auto svd = dominant_right_singular(a, rng);
  EXPECT_DOUBLE_EQ(svd.singular_value, 0.0);
  EXPECT_NEAR(svd.right_singular.norm(), 1.0, 1e-12);
}

TEST(DominantSVD, EmptyMatrix) {
  CMatrix a;
  Rng rng(4);
  const auto svd = dominant_right_singular(a, rng);
  EXPECT_EQ(svd.right_singular.size(), 0u);
}

TEST(LeastSquares, ExactSolutionForSquareSystem) {
  CMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  CVector b{{2.0, 0.0}, {8.0, 0.0}};
  const CVector x = solve_least_squares(a, b);
  EXPECT_NEAR(std::abs(x[0] - Complex(1.0, 0.0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(x[1] - Complex(2.0, 0.0)), 0.0, 1e-6);
}

TEST(LeastSquares, OverdeterminedConsistentSystem) {
  Rng rng(6);
  const std::size_t m = 12, n = 4;
  CMatrix a(m, n);
  CVector truth(n);
  for (std::size_t i = 0; i < n; ++i)
    truth[i] = Complex(rng.gaussian(), rng.gaussian());
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      a(r, c) = Complex(rng.gaussian(), rng.gaussian());
  const CVector b = a * truth;
  const CVector x = solve_least_squares(a, b);
  EXPECT_NEAR((x - truth).norm(), 0.0, 1e-6);
}

TEST(LeastSquares, DimensionMismatchThrows) {
  EXPECT_THROW(solve_least_squares(CMatrix(3, 2), CVector(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace w4k::linalg
