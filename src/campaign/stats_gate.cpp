#include "campaign/stats_gate.h"

#include "common/rng.h"
#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <vector>

namespace w4k::campaign {
namespace {

double median_sorted(std::span<const double> sorted) {
  return quantile_sorted(sorted, 0.5);
}

double sample_median(std::vector<double>& scratch) {
  std::sort(scratch.begin(), scratch.end());
  return median_sorted(scratch);
}

}  // namespace

MwuResult mann_whitney_u(std::span<const double> a,
                         std::span<const double> b) {
  MwuResult r;
  const std::size_t n1 = a.size();
  const std::size_t n2 = b.size();
  if (n1 == 0 || n2 == 0) return r;

  // Pool and rank with midranks for ties.
  struct Tagged {
    double v;
    bool first;
  };
  std::vector<Tagged> pool;
  pool.reserve(n1 + n2);
  for (double v : a) pool.push_back({v, true});
  for (double v : b) pool.push_back({v, false});
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Tagged& x, const Tagged& y) { return x.v < y.v; });

  const double n = static_cast<double>(n1 + n2);
  double rank_sum_a = 0.0;
  double tie_term = 0.0;  // sum over tie groups of t^3 - t
  std::size_t i = 0;
  while (i < pool.size()) {
    std::size_t j = i;
    while (j < pool.size() && pool[j].v == pool[i].v) ++j;
    const double t = static_cast<double>(j - i);
    // Midrank of the group (ranks are 1-based).
    const double midrank = (static_cast<double>(i + 1) +
                            static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k)
      if (pool[k].first) rank_sum_a += midrank;
    tie_term += t * t * t - t;
    i = j;
  }

  const double fn1 = static_cast<double>(n1);
  const double fn2 = static_cast<double>(n2);
  r.u = rank_sum_a - fn1 * (fn1 + 1.0) / 2.0;
  const double mean_u = fn1 * fn2 / 2.0;
  // Tie-corrected variance; all-identical pools give variance 0.
  const double var_u =
      fn1 * fn2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (var_u <= 0.0) {
    r.z = 0.0;
    r.p = 1.0;
    return r;
  }
  const double diff = r.u - mean_u;
  // Continuity correction toward the mean.
  const double cc = diff > 0.5 ? -0.5 : (diff < -0.5 ? 0.5 : -diff);
  r.z = (diff + cc) / std::sqrt(var_u);
  r.p = std::erfc(std::fabs(r.z) / std::sqrt(2.0));
  if (r.p > 1.0) r.p = 1.0;
  return r;
}

BootstrapCi bootstrap_median_delta_ci(std::span<const double> a,
                                      std::span<const double> b,
                                      int resamples, double confidence,
                                      std::uint64_t seed) {
  BootstrapCi ci;
  if (a.empty() || b.empty() || resamples < 2) return ci;
  Rng rng(seed);
  std::vector<double> deltas;
  deltas.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> ra(a.size()), rb(b.size());
  for (int r = 0; r < resamples; ++r) {
    for (auto& v : ra) v = a[rng.below(a.size())];
    for (auto& v : rb) v = b[rng.below(b.size())];
    deltas.push_back(sample_median(ra) - sample_median(rb));
  }
  std::sort(deltas.begin(), deltas.end());
  const double tail = (1.0 - confidence) / 2.0;
  ci.lo = quantile_sorted(deltas, tail);
  ci.hi = quantile_sorted(deltas, 1.0 - tail);
  return ci;
}

GateReport compare(const CampaignSummary& current,
                   const CampaignSummary& baseline) {
  GateReport report;
  if (current.failed > baseline.failed) {
    report.pass = false;
    report.structural_failure =
        "failed cells: " + std::to_string(current.failed) +
        " current vs " + std::to_string(baseline.failed) + " baseline";
    return report;
  }
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    const std::vector<double>& cur = current.metrics[m];
    const std::vector<double>& base = baseline.metrics[m];
    MetricVerdict v;
    v.name = kMetricNames[m];
    v.n_current = cur.size();
    v.n_baseline = base.size();
    v.median_current = median_sorted(cur);
    v.median_baseline = median_sorted(base);
    const MwuResult mwu = mann_whitney_u(cur, base);
    v.p = mwu.p;
    const double delta = v.median_current - v.median_baseline;
    v.flagged = mwu.p < kGateAlpha && std::fabs(delta) > kGateMinEffect;
    if (v.flagged) report.pass = false;
    if (v.flagged)
      v.delta_ci = bootstrap_median_delta_ci(cur, base);
    report.metrics.push_back(std::move(v));
  }
  return report;
}

void print_gate_report(std::ostream& os, const GateReport& report) {
  if (!report.structural_failure.empty()) {
    os << "campaign gate: STRUCTURAL FAILURE: " << report.structural_failure
       << "\n";
    return;
  }
  char line[256];
  std::snprintf(line, sizeof(line), "%-20s %6s %14s %14s %12s  %s\n",
                "metric", "n", "median", "baseline", "p", "verdict");
  os << line;
  for (const MetricVerdict& v : report.metrics) {
    std::snprintf(line, sizeof(line),
                  "%-20s %6zu %14.6g %14.6g %12.3g  %s\n", v.name.c_str(),
                  v.n_current, v.median_current, v.median_baseline, v.p,
                  v.flagged ? "SHIFTED" : "ok");
    os << line;
    if (v.flagged) {
      std::snprintf(line, sizeof(line),
                    "    median delta %.6g, bootstrap 99%% CI [%.6g, %.6g]\n",
                    v.median_current - v.median_baseline, v.delta_ci.lo,
                    v.delta_ci.hi);
      os << line;
    }
  }
  os << "campaign gate: " << (report.pass ? "PASS" : "FAIL") << "\n";
}

}  // namespace w4k::campaign
