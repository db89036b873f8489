// Dense complex vectors and matrices sized for phased-array beamforming.
//
// The dimensions in this system are small (antenna counts <= 64, user
// counts <= 8), so a straightforward row-major dense representation is both
// simple and fast. All operations are bounds-checked in debug builds via
// assert and validated by explicit dimension checks that throw in all
// builds, because a silently mis-shaped channel matrix produces subtly
// wrong beams rather than a crash.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace w4k::linalg {

using Complex = std::complex<double>;

class CMatrix;  // fwd

/// Dense complex column vector.
class CVector {
 public:
  CVector() = default;
  explicit CVector(std::size_t n) : data_(n) {}
  CVector(std::initializer_list<Complex> init) : data_(init) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  Complex& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  const Complex& operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  const std::vector<Complex>& raw() const { return data_; }

  /// Re-sizes to n elements, all zero. Capacity is reused (never shrinks),
  /// so hot-loop callers can cycle a scratch vector through many sizes
  /// without reallocating.
  void resize_zero(std::size_t n) { data_.assign(n, Complex{}); }

  /// Euclidean norm.
  double norm() const;
  /// Sum of |x_i|^2 (norm squared).
  double norm_sq() const;
  /// Returns this / ||this||; throws std::domain_error on the zero vector.
  CVector normalized() const;
  /// Element-wise conjugate.
  CVector conj() const;

  CVector& operator+=(const CVector& other);
  CVector& operator-=(const CVector& other);
  CVector& operator*=(Complex s);

  friend CVector operator+(CVector a, const CVector& b) { return a += b; }
  friend CVector operator-(CVector a, const CVector& b) { return a -= b; }
  friend CVector operator*(CVector a, Complex s) { return a *= s; }
  friend CVector operator*(Complex s, CVector a) { return a *= s; }

 private:
  std::vector<Complex> data_;
};

/// Inner product <a, b> = sum conj(a_i) * b_i.
Complex dot(const CVector& a, const CVector& b);

/// Dense row-major complex matrix.
class CMatrix {
 public:
  CMatrix() = default;
  CMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  Complex& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const Complex& operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Conjugate transpose.
  CMatrix hermitian() const;

  /// Re-shapes to rows x cols with every entry zero. Capacity is reused
  /// (never shrinks) — the scratch-matrix analogue of CVector::resize_zero.
  void reshape_zero(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, Complex{});
  }

  /// Matrix-vector product. Throws std::invalid_argument on size mismatch.
  CVector operator*(const CVector& x) const;
  /// Matrix-matrix product. Throws std::invalid_argument on size mismatch.
  CMatrix operator*(const CMatrix& other) const;

  CMatrix& operator+=(const CMatrix& other);

  /// Extracts row r as a vector.
  CVector row(std::size_t r) const;
  /// Extracts column c as a vector.
  CVector col(std::size_t c) const;
  /// Overwrites row r.
  void set_row(std::size_t r, const CVector& v);

  /// Builds a matrix by stacking the given rows. All rows must agree in size.
  static CMatrix from_rows(const std::vector<CVector>& rows);

  /// Identity matrix.
  static CMatrix identity(std::size_t n);

  /// Frobenius norm.
  double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
};

}  // namespace w4k::linalg
