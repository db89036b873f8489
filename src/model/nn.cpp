#include "model/nn.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace w4k::model {
namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// Epochs over which train_mse's learning rate falls to half.
constexpr double kDecayTau = 300.0;
/// Seed of train_mse's per-epoch example shuffle.
constexpr std::uint64_t kShuffleSeed = 7;

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, bool sig, Rng& rng)
    : in_(in),
      out_(out),
      sigmoid_(sig),
      w_(in * out),
      b_(out, 0.0),
      gw_(in * out, 0.0),
      gb_(out, 0.0),
      mw_(in * out, 0.0),
      vw_(in * out, 0.0),
      mb_(out, 0.0),
      vb_(out, 0.0) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& w : w_) w = rng.uniform(-limit, limit);
}

const Vec& Dense::forward_cached(const Vec& x) {
  if (x.size() != in_) throw std::invalid_argument("Dense: input size mismatch");
  last_x_ = x;  // copy-assign reuses capacity
  last_act_.resize(out_);
  for (std::size_t o = 0; o < out_; ++o) {
    double z = b_[o];
    const double* row = w_.data() + o * in_;
    for (std::size_t i = 0; i < in_; ++i) z += row[i] * last_x_[i];
    last_act_[o] = sigmoid_ ? sigmoid(z) : z;
  }
  return last_act_;
}

const Vec& Dense::backward_cached(const Vec& grad_out) {
  if (grad_out.size() != out_)
    throw std::invalid_argument("Dense: gradient size mismatch");
  dz_.resize(out_);
  for (std::size_t o = 0; o < out_; ++o) {
    // d sigmoid(z) / dz = s * (1 - s) where s is the cached activation.
    dz_[o] = sigmoid_ ? grad_out[o] * last_act_[o] * (1.0 - last_act_[o])
                      : grad_out[o];
  }
  dx_.assign(in_, 0.0);
  for (std::size_t o = 0; o < out_; ++o) {
    double* grow = gw_.data() + o * in_;
    const double* wrow = w_.data() + o * in_;
    const double d = dz_[o];
    gb_[o] += d;
    for (std::size_t i = 0; i < in_; ++i) {
      grow[i] += d * last_x_[i];
      dx_[i] += wrow[i] * d;
    }
  }
  return dx_;
}

void Dense::zero_grad() {
  std::fill(gw_.begin(), gw_.end(), 0.0);
  std::fill(gb_.begin(), gb_.end(), 0.0);
}

void Dense::adam_step(double lr, double beta1, double beta2, double eps,
                      long step, std::size_t batch) {
  const double inv_batch = 1.0 / static_cast<double>(std::max<std::size_t>(1, batch));
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
  auto update = [&](Vec& p, Vec& g, Vec& m, Vec& v) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double grad = g[i] * inv_batch;
      m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
      v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      p[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  };
  update(w_, gw_, mw_, vw_);
  update(b_, gb_, mb_, vb_);
}

void Dense::save(std::ostream& os) const {
  os << in_ << ' ' << out_ << ' ' << (sigmoid_ ? 1 : 0) << '\n';
  os.precision(17);
  for (double w : w_) os << w << ' ';
  os << '\n';
  for (double b : b_) os << b << ' ';
  os << '\n';
}

void Dense::load(std::istream& is) {
  std::size_t in = 0, out = 0;
  int sig = 0;
  if (!(is >> in >> out >> sig) || in != in_ || out != out_)
    throw std::runtime_error("Dense::load: topology mismatch");
  sigmoid_ = sig != 0;
  for (auto& w : w_)
    if (!(is >> w)) throw std::runtime_error("Dense::load: truncated weights");
  for (auto& b : b_)
    if (!(is >> b)) throw std::runtime_error("Dense::load: truncated biases");
  // A bit-flipped cache can still parse (e.g. "nan", "1e308"): a non-finite
  // weight would silently poison every later prediction, so reject it here.
  for (double w : w_)
    if (!std::isfinite(w))
      throw std::runtime_error("Dense::load: non-finite weight");
  for (double b : b_)
    if (!std::isfinite(b))
      throw std::runtime_error("Dense::load: non-finite bias");
}

Network Network::quality_topology(std::size_t in, std::size_t hidden_layers,
                                  std::uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (std::size_t i = 0; i < hidden_layers; ++i)
    net.add_layer(Dense(in, in, /*sigmoid=*/true, rng));
  net.add_layer(Dense(in, 1, /*sigmoid=*/false, rng));
  return net;
}

const Vec& Network::forward_cached(const Vec& x) {
  if (layers_.empty())
    throw std::logic_error("Network::forward_cached: no layers");
  const Vec* h = &x;
  for (auto& layer : layers_) h = &layer.forward_cached(*h);
  return *h;
}

Vec Network::forward(const Vec& x) { return forward_cached(x); }

Vec Network::backward(const Vec& grad_out) {
  const Vec* g = &grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = &it->backward_cached(*g);
  return *g;
}

const Vec& Network::input_gradient_cached(const Vec& x) {
  const Vec& out = forward_cached(x);
  if (out.size() != 1)
    throw std::logic_error("input_gradient: network must have one output");
  // Seed gradient of 1 on the single output; weight-gradient accumulation
  // is unwanted here, so clear it afterwards. The seed lives in reusable
  // per-thread scratch so the gradient path stays allocation-free.
  thread_local Vec seed;
  seed.assign(1, 1.0);
  const Vec* g = &seed;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = &it->backward_cached(*g);
  zero_grad();
  return *g;
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

void Network::adam_step(double lr, long step, std::size_t batch, double beta1,
                        double beta2, double eps) {
  for (auto& layer : layers_)
    layer.adam_step(lr, beta1, beta2, eps, step, batch);
}

void Network::save(std::ostream& os) const {
  os << layers_.size() << '\n';
  for (const auto& layer : layers_) layer.save(os);
}

void Network::load(std::istream& is) {
  std::size_t n = 0;
  if (!(is >> n) || n != layers_.size())
    throw std::runtime_error("Network::load: layer count mismatch");
  for (auto& layer : layers_) layer.load(is);
}

double train_mse(Network& net, const std::vector<Example>& data,
                 const TrainConfig& cfg) {
  if (data.empty()) throw std::invalid_argument("train_mse: empty dataset");
  Rng rng(kShuffleSeed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  long adam_step_count = 0;
  double epoch_mse = 0.0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const double lr = cfg.lr / (1.0 + epoch / kDecayTau);
    // Fisher-Yates with our deterministic RNG (std::shuffle is not
    // platform-stable).
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);

    double sum_se = 0.0;
    std::size_t done = 0;
    while (done < order.size()) {
      const std::size_t batch =
          std::min(cfg.batch_size, order.size() - done);
      net.zero_grad();
      for (std::size_t b = 0; b < batch; ++b) {
        const Example& ex = data[order[done + b]];
        const Vec out = net.forward(ex.x);
        const double err = out[0] - ex.y;
        sum_se += err * err;
        // d(MSE)/d(out) for one sample = 2 * err (batch mean applied in
        // adam_step via the batch divisor).
        net.backward(Vec{2.0 * err});
      }
      ++adam_step_count;
      net.adam_step(lr, adam_step_count, batch);
      done += batch;
    }
    epoch_mse = sum_se / static_cast<double>(order.size());
  }
  return epoch_mse;
}

double evaluate_mse(Network& net, const std::vector<Example>& data) {
  if (data.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& ex : data) {
    const double err = net.forward(ex.x)[0] - ex.y;
    sum += err * err;
  }
  return sum / static_cast<double>(data.size());
}

}  // namespace w4k::model
