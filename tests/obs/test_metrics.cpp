// MetricsRegistry semantics: identity-stable instruments, deterministic
// counts under heavy ThreadPool contention, histogram bucketing, and the
// null-sink behavior of disabled spans.
#include "obs/metrics.h"

#include "channel/propagation.h"
#include "common/thread_pool.h"
#include "linalg/decompose.h"
#include "obs/export.h"
#include "obs/span.h"
#include "sched/groups.h"
#include "sched/workspace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace w4k::obs {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    MetricsRegistry::global().reset_values();
  }
  void TearDown() override {
    set_trace_enabled(false);
    set_enabled(false);
    MetricsRegistry::global().reset_values();
    clear_trace();
  }
};

TEST_F(ObsMetricsTest, InstrumentsAreIdentityStable) {
  auto& reg = MetricsRegistry::global();
  Counter& a = reg.counter("test.identity");
  Counter& b = reg.counter("test.identity");
  EXPECT_EQ(&a, &b);
  Stage& s1 = reg.stage("test.identity_stage");
  Stage& s2 = stage("test.identity_stage");
  EXPECT_EQ(&s1, &s2);
}

TEST_F(ObsMetricsTest, CounterDeterministicUnderPoolContention) {
  // Force a real pool even on 1-core CI so increments actually race.
  ThreadPool::reset_shared(4);
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.contended");
  constexpr std::size_t kItems = 10000;
  ThreadPool::shared().parallel_for(
      0, kItems, /*grain=*/7, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) c.add(1);
      });
  EXPECT_EQ(c.value(), kItems);
  ThreadPool::reset_shared(0);  // restore the default size
}

TEST_F(ObsMetricsTest, StageAggregatesUnderPoolContention) {
  ThreadPool::reset_shared(4);
  Stage& st = stage("test.contended_stage");
  constexpr std::size_t kItems = 2000;
  ThreadPool::shared().parallel_for(
      0, kItems, /*grain=*/3, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) StageSpan span(st);
      });
  EXPECT_EQ(st.count(), kItems);
  EXPECT_GE(st.total_ns(), st.max_ns());
  ThreadPool::reset_shared(0);
}

TEST_F(ObsMetricsTest, HistogramBucketsAndOverflow) {
  auto& reg = MetricsRegistry::global();
  Histogram& h = reg.histogram("test.hist", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (le semantics)
  h.observe(5.0);    // bucket 1
  h.observe(1e6);    // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 1e6);

  // Re-registration keeps the original bounds.
  Histogram& again = reg.histogram("test.hist", {42.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.bounds().size(), 3u);
}

TEST_F(ObsMetricsTest, GaugeHoldsLastValue) {
  Gauge& g = MetricsRegistry::global().gauge("test.gauge");
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST_F(ObsMetricsTest, ResetValuesKeepsRegistrations) {
  auto& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.reset_me");
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("test.reset_me"), &c);
}

TEST_F(ObsMetricsTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  Stage& st = stage("test.disabled_stage");
  { StageSpan span(st); }
  { StageSpan span(st); }
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.total_ns(), 0u);
}

TEST_F(ObsMetricsTest, AnytimeSchedulerCountersReachSnapshots) {
  // The anytime scheduler's telemetry (candidate generation, bound
  // pruning, deadline behavior) must land in the flat JSON snapshot —
  // that's what --metrics-out and the Chrome-trace export consume. Drive
  // one real enumeration pass with telemetry on and look for the names.
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> users;
  for (int i = 0; i < 3; ++i)
    users.push_back(channel::make_channel(
        prop, channel::Position::from_polar(4.0, -0.3 + 0.3 * i)));
  sched::SchedWorkspace ws;
  const auto groups = sched::enumerate_groups(
      beamforming::Scheme::kOptimizedMulticast, users,
      beamforming::Codebook{}, std::uint64_t{3}, {}, nullptr, ws);
  ASSERT_FALSE(groups.empty());

  std::ostringstream os;
  write_json_snapshot(os, MetricsRegistry::global());
  const std::string json = os.str();
  std::ostringstream ts;
  write_chrome_trace(ts);
  const std::string chrome = ts.str();
  for (const char* name :
       {"sched.anytime.candidates_generated", "sched.anytime.beamformed",
        "sched.anytime.pruned_by_bound", "sched.anytime.deferred",
        "sched.anytime.deadline_hits"}) {
    EXPECT_NE(json.find(name), std::string::npos)
        << name << " missing from the metrics snapshot";
    EXPECT_NE(chrome.find(name), std::string::npos)
        << name << " missing from the Chrome trace export";
  }
}

TEST_F(ObsMetricsTest, BeamformKernelCountersReachSnapshots) {
  // The subset-lane beamformer's counters: power iterations run, and the
  // subsets that finished on SIMD lanes (all multi-member subsets on a
  // SIMD tier, none on the scalar tier). Off by default: with telemetry
  // disabled the same pass moves neither.
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> users;
  for (int i = 0; i < 4; ++i)
    users.push_back(channel::make_channel(
        prop, channel::Position::from_polar(4.0, -0.45 + 0.3 * i)));
  std::vector<sched::GroupMask> masks;
  std::uint64_t multi = 0;
  for (sched::GroupMask m = 1; m < 16; ++m) {
    masks.push_back(m);
    if (__builtin_popcountll(m) > 1) ++multi;
  }
  sched::SchedWorkspace ws;
  auto& reg = MetricsRegistry::global();
  Counter& iterations = reg.counter("sched.beamform.power_iterations");
  Counter& lanes = reg.counter("sched.beamform.lane_subsets");

  set_enabled(false);
  sched::beamform_priority_into(beamforming::Scheme::kOptimizedMulticast,
                                users, masks, masks.size(), {},
                                beamforming::Codebook{}, 9, nullptr, ws);
  EXPECT_EQ(iterations.value(), 0u);
  EXPECT_EQ(lanes.value(), 0u);

  set_enabled(true);
  sched::beamform_priority_into(beamforming::Scheme::kOptimizedMulticast,
                                users, masks, masks.size(), {},
                                beamforming::Codebook{}, 9, nullptr, ws);
  // Every multi-member power iteration runs at least two steps (the first
  // never tests convergence).
  EXPECT_GE(iterations.value(), 2 * multi);
  const bool simd =
      linalg::subset_lane_width(gf256::active_tier()) > 1;
  EXPECT_EQ(lanes.value(), simd ? multi : 0u);

  std::ostringstream os;
  write_json_snapshot(os, reg);
  const std::string json = os.str();
  for (const char* name :
       {"sched.beamform.power_iterations", "sched.beamform.lane_subsets"})
    EXPECT_NE(json.find(name), std::string::npos)
        << name << " missing from the metrics snapshot";
}

TEST_F(ObsMetricsTest, SnapshotsAreSortedByName) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.zz").add(1);
  reg.counter("test.aa").add(1);
  const auto values = reg.counter_values();
  ASSERT_GE(values.size(), 2u);
  for (std::size_t i = 1; i < values.size(); ++i)
    EXPECT_LT(values[i - 1].first, values[i].first);
}

}  // namespace
}  // namespace w4k::obs
