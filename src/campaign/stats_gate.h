// Statistical quality-regression gate over campaign metric distributions.
//
// The golden gate compares five pinned scenarios byte-for-byte; a campaign
// compares *populations*: for each metric, the per-cell values of the
// current run are tested against the blessed baseline distribution with a
// two-sided Mann-Whitney U test (normal approximation with tie
// correction — campaign metrics are heavily tied: most cells have zero
// handoffs, deliveries saturate at 1.0). A metric fails the gate when the
// shift is both statistically significant (p < kGateAlpha) and
// practically meaningful (|median delta| > kGateMinEffect), so a 500-cell
// run cannot fail on a microscopic-but-consistent float ripple, and a
// genuinely moved distribution cannot hide behind per-cell noise. A seeded
// bootstrap CI of the median delta is reported alongside for humans; it
// never decides.
#pragma once

#include "campaign/shard.h"

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace w4k::campaign {

/// Two-sided Mann-Whitney U via the normal approximation with tie and
/// continuity correction. Degenerate inputs (either sample empty, or all
/// N values identical) yield p = 1 — no evidence of a shift.
struct MwuResult {
  double u = 0.0;  ///< U statistic of the first sample
  double z = 0.0;  ///< tie-corrected standardized statistic
  double p = 1.0;  ///< two-sided p-value
};
MwuResult mann_whitney_u(std::span<const double> a, std::span<const double> b);

/// Percentile bootstrap CI for median(a) - median(b). Deterministic: the
/// resampling Rng is seeded from `seed` only.
struct BootstrapCi {
  double lo = 0.0;
  double hi = 0.0;
};
BootstrapCi bootstrap_median_delta_ci(std::span<const double> a,
                                      std::span<const double> b,
                                      int resamples = 1000,
                                      double confidence = 0.99,
                                      std::uint64_t seed = 0x5eed);

/// Per-metric two-sided significance threshold. The campaign tests
/// kNumMetrics correlated metrics; 1e-4 keeps the family-wise false alarm
/// rate comfortably below the golden gate's (zero) while a real regression
/// across hundreds of cells lands at p orders of magnitude smaller.
inline constexpr double kGateAlpha = 1e-4;
/// Minimum |median delta| for a significant shift to count.
inline constexpr double kGateMinEffect = 1e-4;

struct MetricVerdict {
  std::string name;
  std::size_t n_current = 0;
  std::size_t n_baseline = 0;
  double median_current = 0.0;
  double median_baseline = 0.0;
  double p = 1.0;
  BootstrapCi delta_ci;
  bool flagged = false;  ///< significant AND practically meaningful
};

struct GateReport {
  bool pass = true;
  std::vector<MetricVerdict> metrics;
  std::string structural_failure;  ///< non-statistical reason, if any
};

/// Runs the gate: every baseline metric distribution against the current
/// one. Structural failures (more failed/crashed cells than the baseline
/// had) fail the gate before any statistics run.
GateReport compare(const CampaignSummary& current,
                   const CampaignSummary& baseline);

/// Human-readable verdict table ("metric  n  median  baseline  p  ...").
void print_gate_report(std::ostream& os, const GateReport& report);

}  // namespace w4k::campaign
