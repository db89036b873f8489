#include "model/baselines.h"

#include "common/rng.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace w4k::model {
namespace {

// LinearSvr training (see the class comment).
/// Insensitivity tube half-width: residuals inside it cost nothing.
constexpr double kSvrEpsilon = 0.1;
/// Slack weight.
constexpr double kSvrC = 1.0;
constexpr int kSvrEpochs = 200;
/// Initial learning rate, decayed as 1/t.
constexpr double kSvrLr = 0.01;
/// Seed of the per-epoch shuffle.
constexpr std::uint64_t kSvrSeed = 99;

double dot_with_bias(const Vec& w, const Vec& x) {
  double s = w.back();  // bias
  for (std::size_t i = 0; i < x.size(); ++i) s += w[i] * x[i];
  return s;
}

double dataset_mse(const Vec& w, const std::vector<Example>& data) {
  if (data.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& ex : data) {
    const double err = dot_with_bias(w, ex.x) - ex.y;
    sum += err * err;
  }
  return sum / static_cast<double>(data.size());
}

}  // namespace

double LinearRegression::fit(const std::vector<Example>& data, double ridge) {
  if (data.empty())
    throw std::invalid_argument("LinearRegression: empty dataset");
  const std::size_t d = data.front().x.size() + 1;  // + bias
  // Normal equations (X^T X + ridge I) w = X^T y on the augmented design.
  std::vector<double> a(d * d, 0.0);
  std::vector<double> b(d, 0.0);
  for (const auto& ex : data) {
    Vec xa = ex.x;
    xa.push_back(1.0);
    for (std::size_t i = 0; i < d; ++i) {
      b[i] += xa[i] * ex.y;
      for (std::size_t j = 0; j < d; ++j) a[i * d + j] += xa[i] * xa[j];
    }
  }
  for (std::size_t i = 0; i < d; ++i) a[i * d + i] += ridge;

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < d; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < d; ++r)
      if (std::abs(a[r * d + col]) > std::abs(a[piv * d + col])) piv = r;
    if (a[piv * d + col] == 0.0)
      throw std::domain_error("LinearRegression: singular design matrix");
    if (piv != col) {
      for (std::size_t c = 0; c < d; ++c)
        std::swap(a[piv * d + c], a[col * d + c]);
      std::swap(b[piv], b[col]);
    }
    for (std::size_t r = col + 1; r < d; ++r) {
      const double f = a[r * d + col] / a[col * d + col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < d; ++c) a[r * d + c] -= f * a[col * d + c];
      b[r] -= f * b[col];
    }
  }
  weights_.assign(d, 0.0);
  for (std::size_t i = d; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < d; ++c) s -= a[i * d + c] * weights_[c];
    weights_[i] = s / a[i * d + i];
  }
  return dataset_mse(weights_, data);
}

double LinearRegression::predict(const Vec& x) const {
  return dot_with_bias(weights_, x);
}

double LinearRegression::evaluate(const std::vector<Example>& data) const {
  return dataset_mse(weights_, data);
}

double LinearSvr::fit(const std::vector<Example>& data) {
  if (data.empty()) throw std::invalid_argument("LinearSvr: empty dataset");
  const std::size_t d = data.front().x.size() + 1;
  weights_.assign(d, 0.0);
  Vec averaged(d, 0.0);
  long steps = 0;

  Rng rng(kSvrSeed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < kSvrEpochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    // 1/t learning-rate decay keeps the averaged iterate convergent.
    for (std::size_t idx : order) {
      const Example& ex = data[idx];
      const double lr = kSvrLr / (1.0 + 1e-4 * static_cast<double>(steps));
      const double pred = dot_with_bias(weights_, ex.x);
      const double err = pred - ex.y;
      // Subgradient of C * max(0, |err| - eps) + 0.5 ||w||^2 (bias
      // unregularized).
      double sign = 0.0;
      if (err > kSvrEpsilon) sign = 1.0;
      else if (err < -kSvrEpsilon) sign = -1.0;
      for (std::size_t j = 0; j + 1 < d; ++j) {
        const double grad = kSvrC * sign * ex.x[j] + 1e-4 * weights_[j];
        weights_[j] -= lr * grad;
      }
      weights_[d - 1] -= lr * kSvrC * sign;
      ++steps;
      for (std::size_t j = 0; j < d; ++j)
        averaged[j] += (weights_[j] - averaged[j]) / static_cast<double>(steps);
    }
  }
  weights_ = averaged;
  return dataset_mse(weights_, data);
}

double LinearSvr::predict(const Vec& x) const {
  return dot_with_bias(weights_, x);
}

double LinearSvr::evaluate(const std::vector<Example>& data) const {
  return dataset_mse(weights_, data);
}

}  // namespace w4k::model
