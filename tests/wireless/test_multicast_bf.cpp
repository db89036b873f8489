#include "beamforming/multicast.h"

#include "channel/array.h"
#include "channel/propagation.h"

#include <gtest/gtest.h>

namespace w4k::beamforming {
namespace {

std::vector<linalg::CVector> channels_at(
    std::initializer_list<std::pair<double, double>> dist_az) {
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> out;
  for (const auto& [d, az] : dist_az)
    out.push_back(
        channel::make_channel(prop, channel::Position::from_polar(d, az)));
  return out;
}

/// group_beam_into for the ascending `members` of `users`, into a fresh
/// GroupBeam.
GroupBeam beam_for(Scheme scheme, std::span<const linalg::CVector> users,
                   const std::vector<std::size_t>& members,
                   const Codebook& codebook, std::uint64_t seed) {
  GroupBeam out;
  group_beam_into(scheme, users, members, codebook, seed, out);
  return out;
}

Codebook default_codebook() {
  CodebookConfig cfg;
  return make_sector_codebook(cfg);
}

TEST(SchemeTraits, MulticastCapability) {
  EXPECT_TRUE(allows_multicast(Scheme::kOptimizedMulticast));
  EXPECT_TRUE(allows_multicast(Scheme::kPredefinedMulticast));
  EXPECT_FALSE(allows_multicast(Scheme::kOptimizedUnicast));
  EXPECT_FALSE(allows_multicast(Scheme::kPredefinedUnicast));
}

TEST(SchemeTraits, Names) {
  EXPECT_EQ(to_string(Scheme::kOptimizedMulticast), "optimized-multicast");
  EXPECT_EQ(to_string(Scheme::kPredefinedUnicast), "pre-defined-unicast");
}

TEST(GroupBeam, EmptyGroupThrows) {
  const std::uint64_t seed = 1;
  EXPECT_THROW(beam_for(Scheme::kOptimizedUnicast, {}, {}, Codebook{}, seed),
               std::invalid_argument);
}

TEST(GroupBeam, UnicastSchemeRejectsMultiMemberGroups) {
  const std::uint64_t seed = 2;
  const auto chans = channels_at({{3.0, 0.1}, {3.0, -0.1}});
  EXPECT_THROW(
      beam_for(Scheme::kOptimizedUnicast, chans, {0, 1}, Codebook{}, seed),
      std::invalid_argument);
}

TEST(GroupBeam, PredefinedSchemesNeedCodebook) {
  const std::uint64_t seed = 3;
  const auto chans = channels_at({{3.0, 0.1}});
  EXPECT_THROW(
      beam_for(Scheme::kPredefinedUnicast, chans, {0}, Codebook{}, seed),
      std::invalid_argument);
}

TEST(GroupBeam, OptimizedUnicastIsMrt) {
  const std::uint64_t seed = 4;
  const auto chans = channels_at({{3.0, 0.2}});
  const GroupBeam g =
      beam_for(Scheme::kOptimizedUnicast, chans, {0}, Codebook{}, seed);
  // MRT achieves ||h||^2 exactly.
  EXPECT_NEAR(g.min_rss.value,
              Dbm::from_milliwatts(chans[0].norm_sq()).value, 1e-9);
  EXPECT_GT(g.rate.value, 0.0);
  EXPECT_NEAR(g.beam.norm(), 1.0, 1e-12);
}

TEST(GroupBeam, OptimizedBeatsPredefinedUnicast) {
  const std::uint64_t seed = 5;
  const auto cb = default_codebook();
  const auto chans = channels_at({{3.0, 0.23}});
  const auto opt =
      beam_for(Scheme::kOptimizedUnicast, chans, {0}, Codebook{}, seed);
  const auto pre = beam_for(Scheme::kPredefinedUnicast, chans, {0}, cb, seed);
  EXPECT_GE(opt.min_rss.value, pre.min_rss.value);
}

TEST(GroupBeam, OptimizedMulticastBeatsPredefinedMulticast) {
  const std::uint64_t seed = 6;
  const auto cb = default_codebook();
  const auto chans = channels_at({{3.0, 0.5}, {3.0, -0.5}});
  const auto opt =
      beam_for(Scheme::kOptimizedMulticast, chans, {0, 1}, Codebook{}, seed);
  const auto pre =
      beam_for(Scheme::kPredefinedMulticast, chans, {0, 1}, cb, seed);
  EXPECT_GE(opt.min_rss.value, pre.min_rss.value - 0.5);
}

TEST(GroupBeam, MulticastBeamReachesBothUsers) {
  // The headline property: a multi-lobe beam serves angularly separated
  // users far better than either user's unicast beam serves the other.
  const std::uint64_t seed = 7;
  const auto chans = channels_at({{3.0, 0.5}, {3.0, -0.5}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, {0, 1}, Codebook{}, seed);
  ASSERT_EQ(multi.beam.size(), chans[0].size());
  // Unicast beam for user 0 evaluated at user 1:
  const auto f0 = chans[0].conj().normalized();
  const double cross = channel::beam_rss(chans[1], f0).value;
  EXPECT_GT(multi.min_rss.value, cross + 6.0);
}

TEST(GroupBeam, MulticastSplitsPowerVersusUnicast) {
  // Serving two users with one beam costs roughly 3 dB against a
  // dedicated beam per user (power split across two lobes).
  const std::uint64_t seed = 8;
  const auto chans = channels_at({{3.0, 0.5}, {3.0, -0.5}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, {0, 1}, Codebook{}, seed);
  const auto uni =
      beam_for(Scheme::kOptimizedUnicast, chans, {0}, Codebook{}, seed);
  const double split_loss = uni.min_rss.value - multi.min_rss.value;
  EXPECT_GT(split_loss, 1.0);
  EXPECT_LT(split_loss, 7.0);
}

TEST(GroupBeam, SingletonOptimizedMulticastEqualsMrt) {
  const std::uint64_t seed = 9;
  const auto chans = channels_at({{4.0, 0.3}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, {0}, Codebook{}, seed);
  const auto uni =
      beam_for(Scheme::kOptimizedUnicast, chans, {0}, Codebook{}, seed);
  EXPECT_NEAR(multi.min_rss.value, uni.min_rss.value, 1e-9);
}

TEST(GroupBeam, MinRssIsBottleneckMember) {
  const std::uint64_t seed = 10;
  const auto chans = channels_at({{3.0, 0.2}, {10.0, -0.4}});
  const auto g =
      beam_for(Scheme::kOptimizedMulticast, chans, {0, 1}, Codebook{}, seed);
  double min = 1e9;
  for (const auto& h : chans)
    min = std::min(min, channel::beam_rss(h, g.beam).value);
  EXPECT_DOUBLE_EQ(g.min_rss.value, min);
  // Rate corresponds to the min RSS per Table 2.
  EXPECT_DOUBLE_EQ(g.rate.value,
                   channel::rate_for_rss(g.min_rss).value);
}

TEST(GroupBeam, CloseUsersMulticastNearlyFree) {
  // Users 3 degrees apart share one lobe: the multicast penalty vs
  // unicast should be far below the 3 dB split.
  const std::uint64_t seed = 11;
  const auto chans = channels_at({{3.0, 0.00}, {3.0, 0.05}});
  const auto multi =
      beam_for(Scheme::kOptimizedMulticast, chans, {0, 1}, Codebook{}, seed);
  const auto uni =
      beam_for(Scheme::kOptimizedUnicast, chans, {0}, Codebook{}, seed);
  EXPECT_GT(multi.min_rss.value, uni.min_rss.value - 3.0);
}

TEST(GroupBeam, CodebookSearchTakesTheFirstOfTiedSectors) {
  // Negating a sector leaves every |F . h| bit for bit unchanged, so a
  // codebook {weak, -best, best} ties its last two sectors exactly; the
  // search must keep the first of them.
  const auto cb = default_codebook();
  const auto chans = channels_at({{3.0, 0.3}, {3.0, 0.1}});
  const std::uint64_t seed = 14;
  const auto best =
      beam_for(Scheme::kPredefinedMulticast, chans, {0, 1}, cb, seed);
  linalg::CVector negated = best.beam;
  for (std::size_t i = 0; i < negated.size(); ++i) negated[i] = -negated[i];
  Codebook tied;
  tied.beams = {cb[0], negated, best.beam};
  ASSERT_NE(channel::beam_rss(chans[0], cb[0]).value,
            channel::beam_rss(chans[0], best.beam).value);
  const auto g =
      beam_for(Scheme::kPredefinedMulticast, chans, {0, 1}, tied, seed);
  ASSERT_EQ(g.beam.size(), negated.size());
  for (std::size_t i = 0; i < negated.size(); ++i)
    EXPECT_EQ(g.beam[i], negated[i]) << "element " << i;
  EXPECT_EQ(g.min_rss.value, best.min_rss.value);
  for (std::size_t u = 0; u < 2; ++u)
    EXPECT_EQ(channel::beam_rss(chans[u], g.beam).value,
              channel::beam_rss(chans[u], best.beam).value);
  EXPECT_EQ(g.rate.value, best.rate.value);
}

TEST(GroupBeam, FarUserYieldsZeroRate) {
  const std::uint64_t seed = 12;
  const auto chans = channels_at({{200.0, 0.0}});
  const auto g =
      beam_for(Scheme::kOptimizedUnicast, chans, {0}, Codebook{}, seed);
  EXPECT_DOUBLE_EQ(g.rate.value, 0.0);
}

TEST(GroupBeam, EightUserGroupStillServed) {
  const std::uint64_t seed = 13;
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> chans;
  for (int i = 0; i < 8; ++i)
    chans.push_back(channel::make_channel(
        prop, channel::Position::from_polar(6.0, -0.6 + 0.17 * i)));
  const auto g = beam_for(Scheme::kOptimizedMulticast, chans,
                          {0, 1, 2, 3, 4, 5, 6, 7}, Codebook{}, seed);
  for (const auto& h : chans)
    EXPECT_GE(channel::beam_rss(h, g.beam).value, g.min_rss.value);
  EXPECT_GT(g.rate.value, 0.0);
}

}  // namespace
}  // namespace w4k::beamforming
