// Small descriptive-statistics helpers used by the benchmark harnesses to
// print the paper's box-plot style summaries (min / quartiles / median /
// max) and by tests to assert on distributions.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace w4k {

/// Five-number summary plus mean, matching the paper's box plots
/// ("the lines on the box from the top to the bottom are the max,
///  1st quartile, median, 3rd quartile and min").
struct Summary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;
};

/// Computes the summary of `values`. Empty input yields an all-zero
/// summary. Throws std::invalid_argument on NaN input: NaN breaks the
/// sort's strict weak ordering, so a poisoned series must fail loudly
/// instead of yielding garbage quartiles.
Summary summarize(std::span<const double> values);

/// Linear-interpolated quantile of a *sorted* sequence, q in [0, 1].
double quantile_sorted(std::span<const double> sorted, double q);

/// Arithmetic mean (0 for empty input).
double mean(std::span<const double> values);

/// Population standard deviation (0 for fewer than 2 elements).
double stddev(std::span<const double> values);

/// Harmonic mean (used by FastMPC-style throughput prediction).
double harmonic_mean(std::span<const double> values);

/// Formats a summary as "mean=… [min q1 med q3 max]" for bench output.
std::string to_string(const Summary& s);

}  // namespace w4k
