// Minimal feed-forward neural network with backpropagation and Adam.
//
// Sized for the paper's quality model (Sec. 2.3): five 9->9 fully
// connected layers with sigmoid activations plus a final 9->1 linear
// layer. Besides weight gradients the net exposes *input* gradients,
// which the transmission-strategy optimizer (Sec. 2.4) uses to ascend the
// quality surface analytically instead of via finite differences.
#pragma once

#include "common/rng.h"

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace w4k::model {

using Vec = std::vector<double>;

/// Fully connected layer with optional sigmoid activation.
class Dense {
 public:
  /// Xavier/Glorot-uniform initialization from `rng`.
  Dense(std::size_t in, std::size_t out, bool sigmoid, Rng& rng);

  /// Forward pass; caches input and activation for backward_cached().
  /// Computes into an internal activation buffer (reused across calls) and
  /// returns a reference to it, valid until the next forward on this layer.
  const Vec& forward_cached(const Vec& x);

  /// Backward pass for the most recent forward_cached(). Accumulates
  /// weight/bias gradients internally; dL/dx lands in an internal buffer
  /// (reused across calls, valid until the next backward on this layer).
  const Vec& backward_cached(const Vec& grad_out);

  /// Zeroes accumulated gradients.
  void zero_grad();

  /// Adam update with the accumulated gradients divided by `batch`.
  void adam_step(double lr, double beta1, double beta2, double eps,
                 long step, std::size_t batch);

  /// Serialization of parameters (plain text, locale-independent).
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::size_t in_, out_;
  bool sigmoid_;
  Vec w_;   // out_ x in_, row-major
  Vec b_;   // out_
  Vec gw_, gb_;
  // Adam moments.
  Vec mw_, vw_, mb_, vb_;
  // Cached forward state.
  Vec last_x_, last_act_;
  // Reused backward scratch (dz and dL/dx).
  Vec dz_, dx_;
};

/// A stack of Dense layers.
class Network {
 public:
  /// Builds the paper's quality-model topology for `in` input features:
  /// `hidden_layers` sigmoid layers of width `in`, then a linear in->1 head.
  static Network quality_topology(std::size_t in, std::size_t hidden_layers,
                                  std::uint64_t seed);

  /// Empty network; add layers manually.
  Network() = default;
  void add_layer(Dense layer) { layers_.push_back(std::move(layer)); }
  std::size_t layer_count() const { return layers_.size(); }

  Vec forward(const Vec& x);
  /// Backward from dL/d(output); returns dL/d(input).
  Vec backward(const Vec& grad_out);

  /// Allocation-free forward for the per-frame optimizer hot loop: the
  /// returned reference points into the last layer's internal buffer and
  /// is valid until the next call. Same arithmetic as forward().
  const Vec& forward_cached(const Vec& x);
  /// d(output[0]) / d(input): forward + backward with unit seed gradient,
  /// into the first layer's internal buffer (valid until the next call).
  /// Throws std::logic_error unless the network has one output.
  const Vec& input_gradient_cached(const Vec& x);

  void zero_grad();
  void adam_step(double lr, long step, std::size_t batch,
                 double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  std::vector<Dense> layers_;
};

/// One labelled example.
struct Example {
  Vec x;
  double y = 0.0;
};

/// Training configuration (paper defaults: Adam, MSE, 500 epochs, batch 128).
struct TrainConfig {
  int epochs = 500;
  std::size_t batch_size = 128;
  /// Initial rate, decayed in inverse time: lr_epoch = lr / (1 + epoch /
  /// 300). Unlike step decay this keeps making (ever smaller) progress on
  /// very long runs instead of freezing.
  double lr = 1e-2;
};

/// Trains with MSE loss; returns final epoch's mean training MSE.
double train_mse(Network& net, const std::vector<Example>& data,
                 const TrainConfig& cfg);

/// Mean squared error of the network on `data`.
double evaluate_mse(Network& net, const std::vector<Example>& data);

}  // namespace w4k::model
