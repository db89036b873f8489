#include "linalg/matrix.h"

#include <cmath>
#include <stdexcept>

namespace w4k::linalg {

double CVector::norm() const { return std::sqrt(norm_sq()); }

double CVector::norm_sq() const {
  double s = 0.0;
  for (const auto& x : data_) s += std::norm(x);
  return s;
}

CVector CVector::normalized() const {
  const double n = norm();
  if (n == 0.0) throw std::domain_error("cannot normalize zero vector");
  CVector out = *this;
  for (auto& x : out.data_) x /= n;
  return out;
}

CVector CVector::conj() const {
  CVector out = *this;
  for (auto& x : out.data_) x = std::conj(x);
  return out;
}

CVector& CVector::operator+=(const CVector& other) {
  if (size() != other.size())
    throw std::invalid_argument("vector size mismatch in +=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

CVector& CVector::operator-=(const CVector& other) {
  if (size() != other.size())
    throw std::invalid_argument("vector size mismatch in -=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

CVector& CVector::operator*=(Complex s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Complex dot(const CVector& a, const CVector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("vector size mismatch in dot");
  Complex s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += std::conj(a[i]) * b[i];
  return s;
}

CMatrix CMatrix::hermitian() const {
  CMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out(c, r) = std::conj((*this)(r, c));
  return out;
}

CVector CMatrix::operator*(const CVector& x) const {
  if (cols_ != x.size())
    throw std::invalid_argument("matrix-vector size mismatch");
  CVector y(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    Complex s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += (*this)(r, c) * x[c];
    y[r] = s;
  }
  return y;
}

CMatrix CMatrix::operator*(const CMatrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("matrix-matrix size mismatch");
  CMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const Complex a = (*this)(r, k);
      if (a == Complex{}) continue;
      for (std::size_t c = 0; c < other.cols_; ++c)
        out(r, c) += a * other(k, c);
    }
  }
  return out;
}

CMatrix& CMatrix::operator+=(const CMatrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("matrix size mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

CVector CMatrix::row(std::size_t r) const {
  assert(r < rows_);
  CVector v(cols_);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

CVector CMatrix::col(std::size_t c) const {
  assert(c < cols_);
  CVector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void CMatrix::set_row(std::size_t r, const CVector& v) {
  if (v.size() != cols_)
    throw std::invalid_argument("row size mismatch in set_row");
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

CMatrix CMatrix::from_rows(const std::vector<CVector>& rows) {
  if (rows.empty()) return {};
  CMatrix out(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) out.set_row(r, rows[r]);
  return out;
}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

double CMatrix::frobenius_norm() const {
  double s = 0.0;
  for (const auto& x : data_) s += std::norm(x);
  return std::sqrt(s);
}

}  // namespace w4k::linalg
