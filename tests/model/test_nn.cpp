#include "model/nn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace w4k::model {
namespace {

TEST(Dense, ForwardLinearKnownValues) {
  Rng rng(1);
  Dense layer(2, 1, /*sigmoid=*/false, rng);
  // Overwrite weights via save/load round-trip format.
  std::stringstream ss;
  ss << "2 1 0\n3.0 -2.0\n0.5\n";
  layer.load(ss);
  const Vec& out = layer.forward_cached({1.0, 2.0});
  EXPECT_NEAR(out[0], 3.0 - 4.0 + 0.5, 1e-12);
}

TEST(Dense, SigmoidSquashes) {
  Rng rng(2);
  Dense layer(1, 1, /*sigmoid=*/true, rng);
  std::stringstream ss;
  ss << "1 1 1\n100.0\n0.0\n";
  layer.load(ss);
  EXPECT_NEAR(layer.forward_cached({1.0})[0], 1.0, 1e-6);
  EXPECT_NEAR(layer.forward_cached({-1.0})[0], 0.0, 1e-6);
  EXPECT_NEAR(layer.forward_cached({0.0})[0], 0.5, 1e-12);
}

TEST(Dense, InputSizeMismatchThrows) {
  Rng rng(3);
  Dense layer(3, 2, false, rng);
  EXPECT_THROW(layer.forward_cached({1.0}), std::invalid_argument);
}

TEST(Network, GradientMatchesFiniteDifference) {
  // The core correctness property of backprop.
  Network net = Network::quality_topology(4, 2, 77);
  const Vec x{0.3, 0.7, 0.1, 0.9};
  const Vec analytic = net.input_gradient_cached(x);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vec xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric =
        (net.forward(xp)[0] - net.forward(xm)[0]) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5) << "input " << i;
  }
}

TEST(Network, WeightGradientDescendsLoss) {
  // One Adam step on a single example must reduce squared error.
  Network net = Network::quality_topology(3, 2, 5);
  const Vec x{0.5, 0.5, 0.5};
  const double target = 0.25;
  const double before = net.forward(x)[0];
  for (int i = 0; i < 50; ++i) {
    net.zero_grad();
    const double err = net.forward(x)[0] - target;
    net.backward({2.0 * err});
    net.adam_step(0.01, i + 1, 1);
  }
  const double after = net.forward(x)[0];
  EXPECT_LT(std::abs(after - target), std::abs(before - target));
  EXPECT_NEAR(after, target, 0.02);
}

TEST(Network, QualityTopologyShape) {
  Network net = Network::quality_topology(9, 5, 42);
  EXPECT_EQ(net.layer_count(), 6u);  // 5 hidden + 1 head
  const Vec out = net.forward(Vec(9, 0.5));
  EXPECT_EQ(out.size(), 1u);
}

TEST(Network, SaveLoadRoundTrip) {
  Network a = Network::quality_topology(5, 3, 9);
  const Vec x{0.1, 0.9, 0.4, 0.6, 0.2};
  const double before = a.forward(x)[0];
  std::stringstream ss;
  a.save(ss);
  Network b = Network::quality_topology(5, 3, 1);  // different init
  EXPECT_NE(b.forward(x)[0], before);
  b.load(ss);
  EXPECT_DOUBLE_EQ(b.forward(x)[0], before);
}

TEST(Network, LoadTopologyMismatchThrows) {
  Network a = Network::quality_topology(5, 3, 9);
  std::stringstream ss;
  a.save(ss);
  Network b = Network::quality_topology(4, 3, 1);
  EXPECT_THROW(b.load(ss), std::runtime_error);
}

TEST(Network, InputGradientRequiresSingleOutput) {
  Rng rng(10);
  Network net;
  net.add_layer(Dense(3, 2, false, rng));
  EXPECT_THROW(net.input_gradient_cached({1.0, 2.0, 3.0}), std::logic_error);
}

TEST(Training, LearnsLinearFunction) {
  // y = 0.2 x0 + 0.5 x1 + 0.1, trivially learnable.
  Rng rng(11);
  std::vector<Example> data;
  for (int i = 0; i < 256; ++i) {
    Example ex;
    ex.x = {rng.uniform(), rng.uniform()};
    ex.y = 0.2 * ex.x[0] + 0.5 * ex.x[1] + 0.1;
    data.push_back(ex);
  }
  Network net = Network::quality_topology(2, 2, 13);
  TrainConfig cfg;
  cfg.epochs = 800;
  const double mse = train_mse(net, data, cfg);
  EXPECT_LT(mse, 2e-4);
  EXPECT_LT(evaluate_mse(net, data), 2e-4);
}

TEST(Training, LearnsNonlinearFunction) {
  // y = x0 * x1 needs the hidden nonlinearity.
  Rng rng(12);
  std::vector<Example> data;
  for (int i = 0; i < 512; ++i) {
    Example ex;
    ex.x = {rng.uniform(), rng.uniform()};
    ex.y = ex.x[0] * ex.x[1];
    data.push_back(ex);
  }
  Network net = Network::quality_topology(2, 3, 14);
  TrainConfig cfg;
  cfg.epochs = 1500;
  const double mse = train_mse(net, data, cfg);
  EXPECT_LT(mse, 2e-3);
}

TEST(Training, EmptyDatasetThrows) {
  Network net = Network::quality_topology(2, 1, 17);
  EXPECT_THROW(train_mse(net, {}, TrainConfig{}), std::invalid_argument);
}

TEST(Training, DeterministicGivenSeeds) {
  Rng rng(18);
  std::vector<Example> data;
  for (int i = 0; i < 64; ++i) {
    Example ex;
    ex.x = {rng.uniform(), rng.uniform()};
    ex.y = ex.x[0];
    data.push_back(ex);
  }
  TrainConfig cfg;
  cfg.epochs = 50;
  Network a = Network::quality_topology(2, 2, 19);
  Network b = Network::quality_topology(2, 2, 19);
  train_mse(a, data, cfg);
  train_mse(b, data, cfg);
  EXPECT_DOUBLE_EQ(a.forward({0.3, 0.4})[0], b.forward({0.3, 0.4})[0]);
}

}  // namespace
}  // namespace w4k::model
