// The two weaker quality-model baselines of Table 1: linear regression
// (closed-form ridge) and a linear support vector regressor trained with
// subgradient descent on the epsilon-insensitive loss. The paper reports
// MSE of 0.0231 (LinReg) and 0.0524 (SVM) versus 2.4e-5 for the DNN; the
// point of these implementations is reproducing that ordering.
#pragma once

#include "model/nn.h"

#include <vector>

namespace w4k::model {

/// Ordinary least squares with a small ridge term for conditioning.
class LinearRegression {
 public:
  /// Fits on `data`; returns training MSE. Throws on an empty dataset.
  double fit(const std::vector<Example>& data, double ridge = 1e-8);
  double predict(const Vec& x) const;
  double evaluate(const std::vector<Example>& data) const;

 private:
  Vec weights_;  // one per feature + bias at the end
};

/// Linear epsilon-SVR via averaged subgradient descent, with the
/// scikit-learn defaults the paper's SVM baseline would have used (tube
/// half-width 0.1, slack weight 1). The tube is also what makes the SVM
/// land a clear last place in Table 1: residuals inside it are free, so
/// the fit never gets tighter than ~epsilon.
class LinearSvr {
 public:
  /// Fits on `data` (200 epochs, learning rate 0.01 with 1/t decay);
  /// returns training MSE.
  double fit(const std::vector<Example>& data);
  double predict(const Vec& x) const;
  double evaluate(const std::vector<Example>& data) const;

 private:
  Vec weights_;
};

}  // namespace w4k::model
