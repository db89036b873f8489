// Unit tests for the campaign engine's pieces: the Mann-Whitney U gate
// statistics (known values, ties, degenerate inputs), the shard JSONL
// round-trip (including torn final lines from crashed workers), the merged
// summary round-trip, the gate verdict logic, and metric extraction. The
// end-to-end sharded run (worker fan-out, crash isolation, byte-stable
// merge, regression self-detection) is covered by `w4k_campaign selftest`,
// which ctest runs under the `campaign` label.
#include "campaign/shard.h"
#include "campaign/stats_gate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace w4k::campaign {
namespace {

// --- Mann-Whitney U ----------------------------------------------------

TEST(MannWhitney, KnownSeparatedSamples) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {6, 7, 8, 9, 10};
  const MwuResult r = mann_whitney_u(a, b);
  EXPECT_DOUBLE_EQ(r.u, 0.0);  // no a-value exceeds any b-value
  // Hand-computed normal approximation with continuity correction:
  // z = (0 - 12.5 + 0.5) / sqrt(5*5*11/12), p = erfc(|z|/sqrt(2)).
  EXPECT_NEAR(r.z, -2.5068, 1e-3);
  EXPECT_NEAR(r.p, 0.0122, 5e-4);
}

TEST(MannWhitney, SymmetricAndComplementary) {
  const std::vector<double> a = {1.0, 3.0, 5.0, 7.0};
  const std::vector<double> b = {2.0, 4.0, 6.0};
  const MwuResult ab = mann_whitney_u(a, b);
  const MwuResult ba = mann_whitney_u(b, a);
  // U_a + U_b = n1 * n2, and the two-sided p does not depend on order.
  EXPECT_DOUBLE_EQ(ab.u + ba.u, 12.0);
  EXPECT_DOUBLE_EQ(ab.p, ba.p);
  EXPECT_DOUBLE_EQ(ab.z, -ba.z);
}

TEST(MannWhitney, DegenerateInputsYieldPOne) {
  const std::vector<double> some = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(mann_whitney_u({}, some).p, 1.0);
  EXPECT_DOUBLE_EQ(mann_whitney_u(some, {}).p, 1.0);
  // All pooled values identical: tie-corrected variance collapses to 0.
  const std::vector<double> flat = {0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(mann_whitney_u(flat, flat).p, 1.0);
}

TEST(MannWhitney, HeavyTiesStayFiniteAndCentered) {
  // Campaign metrics are exactly like this: mostly one value, a few
  // outliers. Identical distributions must not look significant.
  std::vector<double> a(50, 1.0), b(50, 1.0);
  a[0] = 0.9;
  b[0] = 0.9;
  const MwuResult r = mann_whitney_u(a, b);
  EXPECT_TRUE(std::isfinite(r.z));
  EXPECT_GT(r.p, 0.5);
}

TEST(MannWhitney, LargeShiftClearsCampaignAlpha) {
  // A consistent shift across a few hundred cells must land far below the
  // gate's kGateAlpha = 1e-4.
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(0.90 + 1e-4 * i);
    b.push_back(0.85 + 1e-4 * i);
  }
  EXPECT_LT(mann_whitney_u(a, b).p, 1e-6);
}

// --- Bootstrap CI ------------------------------------------------------

TEST(Bootstrap, DeterministicAndCoversKnownDelta) {
  std::vector<double> a, b;
  for (int i = 0; i < 100; ++i) {
    b.push_back(0.5 + 1e-3 * i);
    a.push_back(0.5 + 1e-3 * i + 0.25);  // median delta is exactly +0.25
  }
  const BootstrapCi ci = bootstrap_median_delta_ci(a, b);
  EXPECT_LE(ci.lo, 0.25);
  EXPECT_GE(ci.hi, 0.25);
  EXPECT_LT(ci.hi - ci.lo, 0.1);  // tight for a clean constant shift
  const BootstrapCi again = bootstrap_median_delta_ci(a, b);
  EXPECT_DOUBLE_EQ(ci.lo, again.lo);  // seeded: bitwise repeatable
  EXPECT_DOUBLE_EQ(ci.hi, again.hi);
}

// --- Shard rows --------------------------------------------------------

CellRow ok_row(std::uint64_t cell) {
  CellRow row;
  row.cell = cell;
  row.kind = CellKind::kMobile;
  row.status = CellRow::Status::kOk;
  for (std::size_t i = 0; i < kNumMetrics; ++i)
    row.metrics.v[i] = 0.1 * static_cast<double>(i + cell) + 1.0 / 3.0;
  row.wall_ms = 12.5;
  return row;
}

TEST(ShardRow, OkRowRoundTrips) {
  const CellRow row = ok_row(7);
  CellRow parsed;
  std::string err;
  ASSERT_TRUE(parse_row(to_jsonl(row), &parsed, &err)) << err;
  EXPECT_EQ(parsed.cell, 7u);
  EXPECT_EQ(parsed.kind, CellKind::kMobile);
  EXPECT_EQ(parsed.status, CellRow::Status::kOk);
  for (std::size_t i = 0; i < kNumMetrics; ++i)
    EXPECT_DOUBLE_EQ(parsed.metrics.v[i], row.metrics.v[i]) << i;
  EXPECT_DOUBLE_EQ(parsed.wall_ms, 12.5);
  EXPECT_TRUE(parsed.error.empty());
}

TEST(ShardRow, FailedRowEscapesErrorText) {
  CellRow row;
  row.cell = 3;
  row.kind = CellKind::kStatic;
  row.status = CellRow::Status::kFailed;
  row.error = "bad \"quote\"\nand \\backslash\ttab";
  CellRow parsed;
  std::string err;
  ASSERT_TRUE(parse_row(to_jsonl(row), &parsed, &err)) << err;
  EXPECT_EQ(parsed.status, CellRow::Status::kFailed);
  EXPECT_EQ(parsed.error, row.error);
}

TEST(ShardRow, TornLineRejectedWithMessage) {
  const std::string whole = to_jsonl(ok_row(1));
  CellRow parsed;
  std::string err;
  EXPECT_FALSE(parse_row(whole.substr(0, whole.size() / 2), &parsed, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_row("", &parsed, &err));
}

TEST(ReadShard, SkipsTornFinalLineAndMissingFile) {
  const std::string path = testing::TempDir() + "w4k_shard_test.jsonl";
  {
    std::ofstream os(path);
    os << to_jsonl(ok_row(0)) << '\n' << to_jsonl(ok_row(1)) << '\n';
    // A worker killed mid-write leaves a torn tail; merge must skip it.
    os << to_jsonl(ok_row(2)).substr(0, 20);
  }
  const std::vector<CellRow> rows = read_shard(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].cell, 0u);
  EXPECT_EQ(rows[1].cell, 1u);
  std::remove(path.c_str());
  EXPECT_TRUE(read_shard(path).empty());  // missing file = empty, no throw
}

// --- Merged summary ----------------------------------------------------

TEST(Summary, SummarizeSortsAndCountsStatuses) {
  std::vector<CellRow> rows = {ok_row(2), ok_row(0), ok_row(1)};
  rows.push_back(CellRow{});  // default row: status ok, metrics all zero
  rows.back().cell = 3;
  rows.back().status = CellRow::Status::kFailed;
  rows.push_back(CellRow{});
  rows.back().cell = 4;
  rows.back().status = CellRow::Status::kCrashed;

  const CampaignSummary s = summarize_rows(99, 5, rows);
  EXPECT_EQ(s.campaign_seed, 99u);
  EXPECT_EQ(s.cells, 5u);
  EXPECT_EQ(s.ok, 3u);
  EXPECT_EQ(s.failed, 2u);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    ASSERT_EQ(s.metrics[m].size(), 3u);  // failed cells contribute nothing
    EXPECT_TRUE(std::is_sorted(s.metrics[m].begin(), s.metrics[m].end()));
  }
}

TEST(Summary, FileRoundTripIsExact) {
  const CampaignSummary s =
      summarize_rows(7, 3, {ok_row(0), ok_row(1), ok_row(2)});
  const std::string path = testing::TempDir() + "w4k_summary_test.json";
  write_summary_file(path, s);
  const CampaignSummary loaded = load_summary(path);
  EXPECT_EQ(loaded.campaign_seed, s.campaign_seed);
  EXPECT_EQ(loaded.cells, s.cells);
  EXPECT_EQ(loaded.ok, s.ok);
  EXPECT_EQ(loaded.failed, s.failed);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    ASSERT_EQ(loaded.metrics[m].size(), s.metrics[m].size()) << m;
    for (std::size_t i = 0; i < s.metrics[m].size(); ++i)
      EXPECT_DOUBLE_EQ(loaded.metrics[m][i], s.metrics[m][i]);
  }
  // And the canonical writer is stable: re-writing the loaded summary
  // produces byte-identical JSON.
  const std::string path2 = testing::TempDir() + "w4k_summary_test2.json";
  write_summary_file(path2, loaded);
  std::ifstream f1(path), f2(path2);
  const std::string b1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string b2((std::istreambuf_iterator<char>(f2)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(b1, b2);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(Summary, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "w4k_summary_bad.json";
  {
    std::ofstream os(path);
    os << "{\"not\": \"a summary\"}";
  }
  EXPECT_THROW(load_summary(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(load_summary(path), std::runtime_error);  // missing file
}

// --- Gate verdicts -----------------------------------------------------

CampaignSummary synthetic_summary(double shift, std::uint64_t failed = 0) {
  CampaignSummary s;
  s.campaign_seed = 1;
  s.cells = 200 + failed;
  s.ok = 200;
  s.failed = failed;
  for (std::size_t m = 0; m < kNumMetrics; ++m)
    for (int i = 0; i < 200; ++i)
      s.metrics[m].push_back(0.5 + 1e-3 * i + (m == 4 ? shift : 0.0));
  return s;
}

TEST(Gate, IdenticalDistributionsPass) {
  const GateReport r = compare(synthetic_summary(0.0), synthetic_summary(0.0));
  EXPECT_TRUE(r.pass);
  EXPECT_TRUE(r.structural_failure.empty());
  ASSERT_EQ(r.metrics.size(), kNumMetrics);
  for (const MetricVerdict& v : r.metrics) {
    EXPECT_FALSE(v.flagged) << v.name;
    EXPECT_DOUBLE_EQ(v.p, 1.0) << v.name;
  }
}

TEST(Gate, FlagsOnlyTheShiftedMetric) {
  const GateReport r =
      compare(synthetic_summary(-0.05), synthetic_summary(0.0));
  EXPECT_FALSE(r.pass);
  for (const MetricVerdict& v : r.metrics) {
    if (v.name == "base_delivery") {
      EXPECT_TRUE(v.flagged);
      EXPECT_LT(v.p, 1e-4);
      // The reported CI brackets the true -0.05 median delta.
      EXPECT_LE(v.delta_ci.lo, -0.05 + 1e-9);
      EXPECT_GE(v.delta_ci.hi, -0.05 - 1e-2);
    } else {
      EXPECT_FALSE(v.flagged) << v.name;
    }
  }
}

TEST(Gate, SignificantButTinyShiftDoesNotFlag) {
  // A perfectly consistent ripple below kGateMinEffect must not fail a run:
  // this is what separates the statistical gate from a bytewise diff.
  // Near-flat distributions make a 5e-5 shift statistically unmissable
  // (every current value beats every baseline value) yet practically nil.
  CampaignSummary baseline, current;
  baseline.campaign_seed = current.campaign_seed = 1;
  baseline.cells = current.cells = 200;
  baseline.ok = current.ok = 200;
  for (std::size_t m = 0; m < kNumMetrics; ++m)
    for (int i = 0; i < 200; ++i) {
      baseline.metrics[m].push_back(0.5 + 1e-9 * i);
      current.metrics[m].push_back(0.5 + 1e-9 * i + 5e-5);
    }
  const GateReport r = compare(current, baseline);
  EXPECT_TRUE(r.pass);
  for (const MetricVerdict& v : r.metrics) {
    EXPECT_LT(v.p, 1e-4) << v.name;   // the shift is real and detected...
    EXPECT_FALSE(v.flagged) << v.name;  // ...but below the effect floor
  }
}

TEST(Gate, StructuralFailureOnNewCellFailures) {
  const GateReport r =
      compare(synthetic_summary(0.0, /*failed=*/2), synthetic_summary(0.0));
  EXPECT_FALSE(r.pass);
  EXPECT_FALSE(r.structural_failure.empty());
}

// --- Metric extraction -------------------------------------------------

core::FrameOutcome outcome(std::vector<double> ssim, std::vector<double> psnr,
                           std::vector<double> decoded) {
  core::FrameOutcome f;
  f.ssim = std::move(ssim);
  f.psnr = std::move(psnr);
  f.decoded_fraction = std::move(decoded);
  return f;
}

TEST(Metrics, ExtractsBaseDeliveryFromDecodedFractions) {
  core::SessionReport report;
  report.add(outcome({0.9, 0.8}, {40.0, 35.0}, {1.0, 0.0}));
  report.add(outcome({0.7, 0.6}, {30.0, 25.0}, {0.5, 0.25}));
  const CellMetrics m = metrics_from_report(report);
  EXPECT_DOUBLE_EQ(m.ssim_mean(), (0.9 + 0.8 + 0.7 + 0.6) / 4.0);
  EXPECT_DOUBLE_EQ(m.delivery_mean(), (1.0 + 0.0 + 0.5 + 0.25) / 4.0);
  EXPECT_DOUBLE_EQ(m.base_delivery(), 3.0 / 4.0);  // one sample decoded 0
  EXPECT_DOUBLE_EQ(m.bad_frame_fraction(), 1.0);   // all below 0.9 default
}

TEST(Metrics, NaNSamplesAreRejectedUpstream) {
  // metrics_from_report's non-finite guard is defense in depth: the
  // invariant checker inside SessionReport::add already refuses NaN
  // samples, which is why campaign metrics can trust report aggregates.
  core::SessionReport report;
  EXPECT_ANY_THROW(
      report.add(outcome({std::nan(""), 0.8}, {40.0, 35.0}, {1.0, 1.0})));
}

TEST(Metrics, EmptyReportYieldsFiniteZeros) {
  // A zero-frame report (a cell whose session produced nothing) must
  // still produce a finite metric vector, not NaN means.
  const CellMetrics m = metrics_from_report(core::SessionReport{});
  for (std::size_t i = 0; i < kNumMetrics; ++i) {
    EXPECT_TRUE(std::isfinite(m.v[i])) << kMetricNames[i];
    EXPECT_DOUBLE_EQ(m.v[i], 0.0) << kMetricNames[i];
  }
}

}  // namespace
}  // namespace w4k::campaign
