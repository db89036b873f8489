#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace w4k {

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  for (double v : values)
    if (std::isnan(v))
      throw std::invalid_argument("summarize: NaN in input series");
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  s.q1 = quantile_sorted(v, 0.25);
  s.median = quantile_sorted(v, 0.5);
  s.q3 = quantile_sorted(v, 0.75);
  s.mean = mean(v);
  s.count = v.size();
  return s;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double sq = 0.0;
  for (double v : values) sq += (v - m) * (v - m);
  return std::sqrt(sq / static_cast<double>(values.size()));
}

double harmonic_mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double inv = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;
    inv += 1.0 / v;
  }
  return static_cast<double>(values.size()) / inv;
}

std::string to_string(const Summary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mean=%.4f [min=%.4f q1=%.4f med=%.4f q3=%.4f max=%.4f n=%zu]",
                s.mean, s.min, s.q1, s.median, s.q3, s.max, s.count);
  return buf;
}

}  // namespace w4k
