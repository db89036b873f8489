#include "channel/propagation.h"

#include "channel/array.h"
#include "channel/mcs.h"

#include <gtest/gtest.h>

#include <cmath>

namespace w4k::channel {
namespace {

TEST(Position, PolarRoundTrip) {
  const Position p = Position::from_polar(5.0, 0.6);
  EXPECT_NEAR(p.distance(), 5.0, 1e-12);
  EXPECT_NEAR(p.azimuth(), 0.6, 1e-12);
}

TEST(Fspl, SixtyGigahertzAtOneMeter) {
  // FSPL at 60.48 GHz, 1 m = 20 log10(4 pi / lambda) ~ 68 dB.
  EXPECT_NEAR(fspl_db(1.0), 68.1, 0.2);
}

TEST(Fspl, TwentyDbPerDecade) {
  EXPECT_NEAR(fspl_db(10.0) - fspl_db(1.0), 20.0, 1e-9);
  EXPECT_NEAR(fspl_db(16.0) - fspl_db(4.0), 20.0 * std::log10(4.0), 1e-9);
}

TEST(Fspl, NearFieldClamped) {
  EXPECT_DOUBLE_EQ(fspl_db(0.0), fspl_db(0.05));
}

TEST(TracePaths, LosIsFirstAndShortest) {
  Room room;
  const auto paths = trace_paths(room, Position::from_polar(5.0, 0.3));
  ASSERT_GE(paths.size(), 3u);
  EXPECT_TRUE(paths[0].line_of_sight);
  EXPECT_NEAR(paths[0].length_m, 5.0, 1e-9);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_FALSE(paths[i].line_of_sight);
    EXPECT_GT(paths[i].length_m, paths[0].length_m);
    EXPECT_GT(paths[i].extra_loss_db, 0.0);
  }
}

TEST(TracePaths, SideWallImageGeometry) {
  Room room;
  room.width = 10.0;
  // Receiver on boresight at 4 m; the +y wall image sits at (4, 10).
  const auto paths = trace_paths(room, Position{4.0, 0.0});
  bool found = false;
  for (const auto& p : paths) {
    if (!p.line_of_sight &&
        std::abs(p.length_m - std::hypot(4.0, 10.0)) < 1e-9 &&
        p.azimuth_rad > 0.5)
      found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TracePaths, CeilingFloorSameAzimuthAsLos) {
  Room room;
  const Position rx = Position::from_polar(6.0, -0.4);
  const auto paths = trace_paths(room, rx);
  int same_azimuth_bounces = 0;
  for (const auto& p : paths) {
    if (!p.line_of_sight && std::abs(p.azimuth_rad - rx.azimuth()) < 1e-9)
      ++same_azimuth_bounces;
  }
  EXPECT_EQ(same_azimuth_bounces, 2);  // ceiling + floor
}

TEST(MakeChannel, CalibrationPutsThreeMetersNearMinus48) {
  // The link-budget promise the whole MCS regime rests on (see header),
  // made by the LoS path alone: every wall, the ceiling and the floor
  // absorb all they are hit with, so the channel is the first path
  // trace_paths returns.
  PropagationConfig cfg;
  cfg.room.wall_loss_db = 1000.0;
  cfg.room.ceiling_loss_db = 1000.0;
  cfg.room.floor_loss_db = 1000.0;
  const Position rx = Position::from_polar(3.0, 0.0);
  const Path los = trace_paths(cfg.room, rx).front();
  ASSERT_TRUE(los.line_of_sight);
  EXPECT_DOUBLE_EQ(los.length_m, 3.0);
  const auto h = make_channel(cfg, rx);
  const double rss = Dbm::from_milliwatts(h.norm_sq()).value;  // MRT
  EXPECT_NEAR(rss, -48.0, 1.5);
}

TEST(MakeChannel, McsRegimesAcrossDistance) {
  // 3 m -> top MCS; 16 m -> mid MCS; 40 m -> weak or dead.
  PropagationConfig cfg;
  const auto rss_at = [&](double d) {
    const auto h = make_channel(cfg, Position::from_polar(d, 0.1));
    return Dbm::from_milliwatts(h.norm_sq());
  };
  const auto near = select_mcs(rss_at(3.0));
  ASSERT_TRUE(near);
  EXPECT_GE(near->mcs, 11);
  const auto mid = select_mcs(rss_at(16.0));
  ASSERT_TRUE(mid);
  EXPECT_GE(mid->mcs, 4);
  EXPECT_LE(mid->mcs, 10);
}

TEST(MakeChannel, PowerDecaysWithDistance) {
  PropagationConfig cfg;
  double prev = 1e18;
  for (double d : {2.0, 4.0, 8.0, 16.0}) {
    const auto h = make_channel(cfg, Position::from_polar(d, 0.2));
    const double p = h.norm_sq();
    EXPECT_LT(p, prev) << d;
    prev = p;
  }
}

TEST(MakeChannel, BlockageAttenuatesLosOnly) {
  PropagationConfig cfg;
  const Position rx = Position::from_polar(5.0, 0.0);
  const auto open = make_channel(cfg, rx, 0.0);
  const auto blocked = make_channel(cfg, rx, 18.0);
  const double drop = Dbm::from_milliwatts(open.norm_sq()).value -
                      Dbm::from_milliwatts(blocked.norm_sq()).value;
  // LoS dominates, so the drop is large but less than the full 18 dB
  // because reflected paths survive.
  EXPECT_GT(drop, 7.0);
  EXPECT_LT(drop, 18.0);
}

TEST(MakeChannel, ReflectionsCreateAngularSpread) {
  // With reflections the channel is not a pure steering vector: the best
  // single-direction beam captures less than the full power.
  PropagationConfig with;
  const Position rx = Position::from_polar(8.0, 0.5);
  const auto h_multi = make_channel(with, rx);
  // MRT captures everything.
  const double total = h_multi.norm_sq();
  // Steering-only beam toward the LoS direction.
  const auto f_los =
      steering_vector(rx.azimuth(), with.n_antennas).conj().normalized();
  const double los_only = std::norm(beam_response(h_multi, f_los));
  EXPECT_LT(los_only, total * 1.0001);
  EXPECT_GT(los_only, total * 0.3);  // LoS still dominates at 60 GHz
}

TEST(MakeChannel, DeterministicGeometry) {
  PropagationConfig cfg;
  const auto a = make_channel(cfg, Position{3.0, 1.0});
  const auto b = make_channel(cfg, Position{3.0, 1.0});
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MakeChannel, ZeroAntennasThrows) {
  PropagationConfig cfg;
  cfg.n_antennas = 0;
  EXPECT_THROW(make_channel(cfg, Position{1.0, 0.0}), std::invalid_argument);
}

TEST(MakeChannel, SmallMoveSmallChangeLargeMoveDecorrelates) {
  // Channel coherence: multipath phases rotate with millimeter motion but
  // the envelope moves slowly; a 2 m move changes the channel completely.
  PropagationConfig cfg;
  const auto h0 = make_channel(cfg, Position{5.0, 0.0});
  const auto h_near = make_channel(cfg, Position{5.02, 0.0});
  const auto h_far = make_channel(cfg, Position{7.0, 1.0});
  const auto corr = [&](const linalg::CVector& a, const linalg::CVector& b) {
    return std::abs(linalg::dot(a, b)) / (a.norm() * b.norm());
  };
  EXPECT_GT(corr(h0, h_near), 0.9);
  EXPECT_LT(corr(h0, h_far), 0.7);
}

}  // namespace
}  // namespace w4k::channel
