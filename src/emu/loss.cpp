#include "emu/loss.h"

#include <algorithm>
#include <cmath>

namespace w4k::emu {
namespace {

/// Exponential decay of loss per dB of positive margin.
constexpr double kDecayPerDb = 1.2;
/// Growth of loss per dB of negative margin.
constexpr double kGrowthPerDb = 1.0;

/// NaN-proof clamp: std::clamp(NaN, 0, 1) would return NaN, and a NaN loss
/// probability poisons every downstream Bernoulli draw. A link whose loss
/// cannot be computed is treated as dead, not as undefined.
double clamp01(double p) {
  if (!std::isfinite(p)) return 1.0;
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace

double monitor_loss(Dbm rss, const channel::McsEntry& mcs) {
  const double margin = rss.value - mcs.sensitivity.value;
  if (!std::isfinite(margin)) return 1.0;  // corrupt CSI: link is dead
  double p;
  if (margin >= 0.0) {
    p = kLossFloor + kLossAtZeroMargin * std::exp(-kDecayPerDb * margin);
  } else {
    p = kLossAtZeroMargin * std::exp(-kGrowthPerDb * margin);
  }
  return clamp01(p);
}

double associated_loss(Dbm rss, const channel::McsEntry& mcs) {
  const double p = monitor_loss(rss, mcs);
  return clamp01(std::pow(p, kMacRetries));
}

}  // namespace w4k::emu
