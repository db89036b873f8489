#include "model/baselines.h"
#include "model/dataset.h"
#include "model/quality_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace w4k::model {
namespace {

std::vector<Example> linear_data(std::size_t n, std::uint64_t seed,
                                 double noise = 0.0) {
  Rng rng(seed);
  std::vector<Example> data;
  for (std::size_t i = 0; i < n; ++i) {
    Example ex;
    ex.x = {rng.uniform(), rng.uniform(), rng.uniform()};
    ex.y = 0.3 * ex.x[0] - 0.2 * ex.x[1] + 0.7 * ex.x[2] + 0.1 +
           (noise > 0 ? rng.gaussian(0.0, noise) : 0.0);
    data.push_back(ex);
  }
  return data;
}

TEST(LinearRegression, RecoversExactLinearRelation) {
  LinearRegression lr;
  const auto data = linear_data(200, 1);
  const double mse = lr.fit(data);
  EXPECT_LT(mse, 1e-18);
  EXPECT_NEAR(lr.predict({1.0, 0.0, 0.0}), 0.4, 1e-9);
  EXPECT_NEAR(lr.predict({0.0, 0.0, 0.0}), 0.1, 1e-9);
}

TEST(LinearRegression, NoisyDataMseMatchesNoiseFloor) {
  LinearRegression lr;
  const auto data = linear_data(2000, 2, 0.05);
  const double mse = lr.fit(data);
  EXPECT_NEAR(mse, 0.05 * 0.05, 5e-4);
}

TEST(LinearRegression, EvaluateOnHeldOut) {
  LinearRegression lr;
  lr.fit(linear_data(200, 3));
  EXPECT_LT(lr.evaluate(linear_data(50, 4)), 1e-18);
}

TEST(LinearRegression, EmptyDatasetThrows) {
  LinearRegression lr;
  EXPECT_THROW(lr.fit({}), std::invalid_argument);
}

TEST(LinearSvr, FitsLinearDataApproximately) {
  LinearSvr svr;
  const auto data = linear_data(400, 5);
  const double mse = svr.fit(data);
  // Epsilon-insensitive loss leaves residuals up to ~epsilon.
  EXPECT_LT(mse, 0.01);
}

TEST(LinearSvr, EmptyDatasetThrows) {
  LinearSvr svr;
  EXPECT_THROW(svr.fit({}), std::invalid_argument);
}

TEST(Baselines, Table1OrderingOnQualityDataset) {
  // The paper's Table 1: DNN << Linear Regression < SVM on held-out MSE.
  auto specs = video::standard_videos(128, 128, 3);
  DatasetConfig dcfg;
  dcfg.frames_per_video = 2;
  dcfg.fractions_per_frame = 50;
  const Dataset ds = build_dataset(specs, dcfg);

  LinearRegression lr;
  lr.fit(ds.train);
  const double lr_mse = lr.evaluate(ds.test);

  LinearSvr svr;
  svr.fit(ds.train);
  const double svr_mse = svr.evaluate(ds.test);

  QualityModel dnn(42);
  TrainConfig tc;
  tc.epochs = 2000;
  dnn.train(ds.train, tc);
  const double dnn_mse = dnn.evaluate(ds.test);

  EXPECT_LT(dnn_mse, lr_mse);
  EXPECT_LT(lr_mse, svr_mse);
  EXPECT_LT(dnn_mse, lr_mse / 3.0);  // "much better", not marginal
}

}  // namespace
}  // namespace w4k::model
