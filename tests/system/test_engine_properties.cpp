// Property-style tests of the transmission engine: invariants that must
// hold for ANY configuration, checked over a parameterized sweep of
// loss rates, rates, feedback rounds, and coding modes.
#include "emu/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <tuple>

namespace w4k::emu {
namespace {

struct EngineCase {
  double loss;
  double mbps;
  /// Feedback rounds the frame leaves room for: kFeedbackRounds (the whole
  /// frame), or 0 (the frame ends before the first report arrives).
  int feedback_rounds;
  bool source_coding;
  bool rate_control;
};

/// Printed field by field: the struct has padding, and gtest's default byte
/// dump would put those uninitialized bytes into the test names that
/// gtest_discover_tests builds from the printed parameter (ctest names such
/// as `Sweep/EngineProperty.InvariantsHold/loss5pct_40mbps_2rounds_coding_ratectl`).
void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << "loss" << std::lround(c.loss * 100) << "pct_" << std::lround(c.mbps)
      << "mbps_" << c.feedback_rounds << "rounds_"
      << (c.source_coding ? "coding" : "nocoding") << "_"
      << (c.rate_control ? "ratectl" : "noratectl");
}

std::vector<sched::UnitSpec> make_units(std::size_t n, std::size_t k) {
  std::vector<sched::UnitSpec> units;
  for (std::size_t i = 0; i < n; ++i) {
    sched::UnitSpec u;
    u.id.layer = static_cast<std::uint16_t>(i * video::kNumLayers / n);
    u.id.sublayer = static_cast<std::uint16_t>(i);
    u.source_bytes = k * 100;
    u.k_symbols = k;
    units.push_back(u);
  }
  return units;
}

/// Fault state of a frame that holds `symbols` 100 B packets at `mbps` and
/// then ends 0.4 ms later, half the feedback latency before the first
/// report could ask for makeup: no makeup round fits.
FrameFaultState ends_before_feedback(std::size_t symbols, double mbps) {
  FrameFaultState f;
  const Seconds schedule =
      Mbps{mbps}.seconds_for(100.0 * static_cast<double>(symbols));
  f.budget_scale = (schedule + 0.4e-3) / kFrameBudget;
  return f;
}

class EngineProperty : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineProperty, InvariantsHold) {
  const EngineCase c = GetParam();
  const auto units = make_units(20, 10);
  std::vector<sched::UnitAssignment> assignments;
  for (std::size_t i = 0; i < units.size(); ++i)
    assignments.push_back({0, i, units[i].k_symbols});

  EngineConfig cfg;
  cfg.symbol_size = 100;
  cfg.header_bytes = 0;
  cfg.source_coding = c.source_coding;
  cfg.rate_control = c.rate_control;
  cfg.queue_capacity_bytes = 50'000;
  TxEngine engine(cfg);

  GroupTx g;
  g.mask = 0b111;
  g.mcs = *channel::mcs_by_index(8);
  g.drain_rate = Mbps{c.mbps};
  g.bucket_rate = Mbps{c.mbps};
  g.member_loss = {c.loss, c.loss / 2.0, c.loss * 1.5};

  const FrameFaultState faults =
      c.feedback_rounds == 0 ? ends_before_feedback(200, c.mbps)
                             : FrameFaultState{};
  Rng rng(1234);
  FrameTxResult res;
  engine.run_frame_into(units, assignments, {g}, 3, rng, faults, {}, res);

  // Conservation: every offered packet is sent, queued into backlog, or
  // dropped; never duplicated or lost silently.
  EXPECT_GE(res.stats.packets_offered,
            res.stats.packets_sent + res.stats.packets_dropped_queue);
  // Airtime can never exceed the frame budget.
  EXPECT_LE(res.stats.airtime, kFrameBudget * faults.budget_scale + 1e-9);
  // Makeup packets only exist when feedback rounds exist.
  if (c.feedback_rounds == 0) {
    EXPECT_EQ(res.stats.makeup_packets, 0u);
  }

  for (std::size_t u = 0; u < 3; ++u) {
    ASSERT_EQ(res.user_symbols[u].size(), units.size());
    for (std::size_t i = 0; i < units.size(); ++i) {
      // Decoding requires at least k symbols...
      if (res.user_decoded[u][i]) {
        EXPECT_GE(res.user_symbols[u][i], units[i].k_symbols);
      }
      // ...and without source coding, exactly-k distinct always decodes.
      if (!c.source_coding &&
          res.user_symbols[u][i] >= units[i].k_symbols) {
        EXPECT_TRUE(res.user_decoded[u][i]);
      }
      // A user can never hold more symbols than were transmitted.
      EXPECT_LE(res.user_symbols[u][i],
                res.stats.packets_sent);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineProperty,
    ::testing::Values(EngineCase{0.0, 40.0, kFeedbackRounds, true, true},
                      EngineCase{0.05, 40.0, kFeedbackRounds, true, true},
                      EngineCase{0.3, 40.0, kFeedbackRounds, true, true},
                      EngineCase{0.05, 40.0, 0, true, true},
                      EngineCase{0.05, 40.0, kFeedbackRounds, false, true},
                      EngineCase{0.05, 40.0, kFeedbackRounds, true, false},
                      EngineCase{0.2, 5.0, kFeedbackRounds, true, true},
                      EngineCase{0.0, 5.0, kFeedbackRounds, false, false},
                      EngineCase{0.9, 40.0, kFeedbackRounds, true, true}));

TEST(EngineProperty, LowerLossNeverWorseOnAverage) {
  // Statistical monotonicity: decoded units should not decrease when the
  // channel improves (averaged over seeds).
  const auto units = make_units(20, 10);
  std::vector<sched::UnitAssignment> assignments;
  for (std::size_t i = 0; i < units.size(); ++i)
    assignments.push_back({0, i, units[i].k_symbols});

  const auto decoded_avg = [&](double loss) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      EngineConfig cfg;
      cfg.symbol_size = 100;
      cfg.header_bytes = 0;
      TxEngine engine(cfg);
      GroupTx g;
      g.mask = 0b1;
      g.mcs = *channel::mcs_by_index(8);
      g.drain_rate = Mbps{10.0};
      g.bucket_rate = Mbps{10.0};
      g.member_loss = {loss};
      Rng rng(seed);
      FrameTxResult res;
      engine.run_frame_into(units, assignments, {g}, 1, rng, {}, {}, res);
      for (bool b : res.user_decoded[0]) total += b ? 1.0 : 0.0;
    }
    return total;
  };

  double prev = 1e18;
  for (double loss : {0.0, 0.1, 0.3, 0.6}) {
    const double d = decoded_avg(loss);
    EXPECT_LE(d, prev + 2.0) << "loss " << loss;  // small-sample slack
    prev = d;
  }
  EXPECT_GT(decoded_avg(0.0), decoded_avg(0.6));
}

TEST(EngineProperty, MoreFeedbackRoundsNeverHurt) {
  const auto units = make_units(20, 10);
  std::vector<sched::UnitAssignment> assignments;
  for (std::size_t i = 0; i < units.size(); ++i)
    assignments.push_back({0, i, units[i].k_symbols});

  const auto decoded_with_rounds = [&](int rounds) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      EngineConfig cfg;
      cfg.symbol_size = 100;
      cfg.header_bytes = 0;
      TxEngine engine(cfg);
      GroupTx g;
      g.mask = 0b11;
      g.mcs = *channel::mcs_by_index(8);
      g.drain_rate = Mbps{40.0};
      g.bucket_rate = Mbps{40.0};
      g.member_loss = {0.15, 0.25};
      const FrameFaultState faults =
          rounds == 0 ? ends_before_feedback(200, 40.0) : FrameFaultState{};
      Rng rng(seed);
      FrameTxResult res;
      engine.run_frame_into(units, assignments, {g}, 2, rng, faults, {}, res);
      for (std::size_t u = 0; u < 2; ++u)
        for (bool b : res.user_decoded[u]) total += b ? 1.0 : 0.0;
    }
    return total;
  };

  const double r0 = decoded_with_rounds(0);
  const double r2 = decoded_with_rounds(kFeedbackRounds);
  EXPECT_GT(r2, r0);  // makeup rounds must pay for themselves here
}

}  // namespace
}  // namespace w4k::emu
