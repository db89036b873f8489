#include "channel/mobility.h"

#include <gtest/gtest.h>

#include <cmath>

namespace w4k::channel {
namespace {

TEST(MovingReceiver, TraceShape) {
  MovingReceiverConfig cfg;
  cfg.n_users = 3;
  cfg.duration = 5.0;
  const CsiTrace trace = moving_receiver_trace(cfg);
  EXPECT_EQ(trace.steps(), 50u);  // 5 s at 10 Hz
  EXPECT_EQ(trace.users(), 3u);
  EXPECT_EQ(trace.positions.size(), trace.steps());
  for (const auto& snap : trace.snapshots)
    for (const auto& h : snap) EXPECT_EQ(h.size(), cfg.prop.n_antennas);
}

TEST(MovingReceiver, WalkersStayInAnnulus) {
  MovingReceiverConfig cfg;
  cfg.n_users = 2;
  cfg.duration = 20.0;
  cfg.min_distance = 3.0;
  cfg.max_distance = 7.0;
  const CsiTrace trace = moving_receiver_trace(cfg);
  for (const auto& step : trace.positions) {
    for (const auto& p : step) {
      EXPECT_GE(p.distance(), cfg.min_distance - 0.5);
      EXPECT_LE(p.distance(), cfg.max_distance + 0.5);
    }
  }
}

TEST(MovingReceiver, SpeedBounded) {
  MovingReceiverConfig cfg;
  cfg.n_users = 1;
  cfg.duration = 10.0;
  cfg.walk_speed = 1.0;
  const CsiTrace trace = moving_receiver_trace(cfg);
  for (std::size_t t = 1; t < trace.steps(); ++t) {
    const auto& a = trace.positions[t - 1][0];
    const auto& b = trace.positions[t][0];
    const double step = std::hypot(b.x - a.x, b.y - a.y);
    EXPECT_LE(step, cfg.walk_speed * 1.2 * kBeaconInterval + 1e-9);
  }
}

TEST(MovingReceiver, StaticFlagFreezesUser) {
  MovingReceiverConfig cfg;
  cfg.n_users = 2;
  cfg.moving = {true, false};
  cfg.duration = 5.0;
  const CsiTrace trace = moving_receiver_trace(cfg);
  const auto& first = trace.positions.front()[1];
  for (const auto& step : trace.positions) {
    EXPECT_DOUBLE_EQ(step[1].x, first.x);
    EXPECT_DOUBLE_EQ(step[1].y, first.y);
  }
  // And the moving user does move.
  const auto& m0 = trace.positions.front()[0];
  const auto& m1 = trace.positions.back()[0];
  EXPECT_GT(std::hypot(m1.x - m0.x, m1.y - m0.y), 0.1);
}

TEST(MovingReceiver, ChannelEvolvesOverTime) {
  MovingReceiverConfig cfg;
  cfg.n_users = 1;
  cfg.duration = 10.0;
  const CsiTrace trace = moving_receiver_trace(cfg);
  const auto rss = best_case_rss_dbm(trace, 0);
  double min = 1e9, max = -1e9;
  for (double r : rss) {
    min = std::min(min, r);
    max = std::max(max, r);
  }
  EXPECT_GT(max - min, 1.0);  // mobility causes real fluctuation
}

TEST(MovingReceiver, Deterministic) {
  MovingReceiverConfig cfg;
  cfg.n_users = 1;
  cfg.duration = 2.0;
  cfg.seed = 99;
  const auto a = moving_receiver_trace(cfg);
  const auto b = moving_receiver_trace(cfg);
  for (std::size_t t = 0; t < a.steps(); ++t)
    for (std::size_t n = 0; n < a.snapshots[t][0].size(); ++n)
      EXPECT_EQ(a.snapshots[t][0][n], b.snapshots[t][0][n]);
}

TEST(MovingReceiver, BadArgumentsThrow) {
  MovingReceiverConfig cfg;
  cfg.n_users = 0;
  EXPECT_THROW(moving_receiver_trace(cfg), std::invalid_argument);
  cfg.n_users = 2;
  cfg.moving = {true};  // size mismatch
  EXPECT_THROW(moving_receiver_trace(cfg), std::invalid_argument);
}

TEST(MovingEnvironment, UsersAreStatic) {
  MovingEnvironmentConfig cfg;
  cfg.users = {Position::from_polar(4.0, 0.2), Position::from_polar(5.0, -0.3)};
  cfg.duration = 5.0;
  const CsiTrace trace = moving_environment_trace(cfg);
  EXPECT_EQ(trace.users(), 2u);
  for (const auto& step : trace.positions) {
    EXPECT_DOUBLE_EQ(step[0].x, cfg.users[0].x);
    EXPECT_DOUBLE_EQ(step[1].y, cfg.users[1].y);
  }
}

TEST(MovingEnvironment, BlockageCausesRssDips) {
  MovingEnvironmentConfig cfg;
  cfg.users = {Position::from_polar(6.0, 0.0)};
  cfg.duration = 60.0;
  const CsiTrace trace = moving_environment_trace(cfg);
  const auto rss = best_case_rss_dbm(trace, 0);
  double min = 1e9, max = -1e9;
  for (double r : rss) {
    min = std::min(min, r);
    max = std::max(max, r);
  }
  // People crossing the LoS should cause multi-dB dips at some point in a
  // minute of walking.
  EXPECT_GT(max - min, 4.0);
}

TEST(MovingEnvironment, NoBlockersMeansStableChannel) {
  // Whenever no blocker is near the user's ray, the snapshot is the
  // user's static channel, bit for bit. In a minute of walking the ray is
  // both clear and blocked at times.
  MovingEnvironmentConfig cfg;
  cfg.users = {Position::from_polar(6.0, 0.0)};
  cfg.duration = 60.0;
  const CsiTrace trace = moving_environment_trace(cfg);
  const linalg::CVector open = make_channel(cfg.prop, cfg.users[0]);
  std::size_t clear = 0;
  for (const auto& snap : trace.snapshots)
    clear += snap[0].raw() == open.raw() ? 1 : 0;
  EXPECT_GT(clear, 0u);
  EXPECT_LT(clear, trace.steps());
}

TEST(MovingEnvironment, EmptyUsersThrow) {
  MovingEnvironmentConfig cfg;
  EXPECT_THROW(moving_environment_trace(cfg), std::invalid_argument);
}

TEST(BestCaseRss, OutOfRangeUserThrows) {
  MovingReceiverConfig cfg;
  cfg.n_users = 1;
  cfg.duration = 1.0;
  const CsiTrace trace = moving_receiver_trace(cfg);
  EXPECT_THROW(best_case_rss_dbm(trace, 5), std::out_of_range);
}

TEST(Regimes, HighAndLowRssBandsAreAchievable) {
  // The paper's high-RSS regime (close walkers) vs low-RSS (far walkers):
  // generated traces should mostly land on the intended side of -61 dBm.
  MovingReceiverConfig high;
  high.n_users = 1;
  high.duration = 30.0;
  high.min_distance = 2.5;
  high.max_distance = 6.0;
  const auto rss_high = best_case_rss_dbm(moving_receiver_trace(high), 0);
  int above = 0;
  for (double r : rss_high) above += r >= -61.0 ? 1 : 0;
  EXPECT_GT(above, static_cast<int>(rss_high.size() * 3 / 4));

  MovingReceiverConfig low = high;
  low.min_distance = 15.0;
  low.max_distance = 19.0;
  const auto rss_low = best_case_rss_dbm(moving_receiver_trace(low), 0);
  int below = 0;
  for (double r : rss_low) below += r < -61.0 ? 1 : 0;
  EXPECT_GT(below, static_cast<int>(rss_low.size() / 2));
}

}  // namespace
}  // namespace w4k::channel
