#include "sched/groups.h"

#include "channel/propagation.h"
#include "common/thread_pool.h"
#include "sched/workspace.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace w4k::sched {
namespace {

std::vector<linalg::CVector> make_users(int n, double distance = 4.0) {
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> out;
  for (int i = 0; i < n; ++i)
    out.push_back(channel::make_channel(
        prop,
        channel::Position::from_polar(distance, -0.4 + 0.8 * i /
                                                     std::max(1, n - 1))));
  return out;
}

TEST(EnumerateGroups, MulticastEnumeratesAllSubsets) {
  SchedWorkspace ws;
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                       make_users(3), beamforming::Codebook{}, 1, {}, nullptr,
                       ws);
  // 2^3 - 1 = 7 subsets, all viable at 4 m.
  EXPECT_EQ(groups.size(), 7u);
}

TEST(EnumerateGroups, UnicastOnlySingletons) {
  SchedWorkspace ws;
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedUnicast, make_users(4),
                       beamforming::Codebook{}, 2, {}, nullptr, ws);
  EXPECT_EQ(groups.size(), 4u);
  for (const auto& g : groups) EXPECT_EQ(std::popcount(g.mask), 1);
}

TEST(EnumerateGroups, MembersAscendingAndMaskOrdered) {
  SchedWorkspace ws;
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                       make_users(3), beamforming::Codebook{}, 3, {}, nullptr,
                       ws);
  // Bitmask order: {0}, {1}, {0,1}, {2}, {0,2}, {1,2}, {0,1,2}.
  ASSERT_EQ(groups.size(), 7u);
  for (std::size_t i = 0; i < groups.size(); ++i)
    EXPECT_EQ(groups[i].mask, GroupMask{i + 1});
}

TEST(EnumerateGroups, RateThresholdPrunes) {
  SchedWorkspace ws;
  GroupEnumConfig cfg;
  cfg.rate_threshold = Mbps{10000.0};  // nothing is this fast
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                       make_users(2), beamforming::Codebook{}, 4, cfg, nullptr,
                       ws);
  EXPECT_TRUE(groups.empty());
}

TEST(EnumerateGroups, MaxGroupSizeCaps) {
  SchedWorkspace ws;
  GroupEnumConfig cfg;
  cfg.max_group_size = 1;
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                       make_users(3), beamforming::Codebook{}, 5, cfg, nullptr,
                       ws);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(EnumerateGroups, UnreachableUserDropped) {
  SchedWorkspace ws;
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> users = make_users(2);
  users.push_back(channel::make_channel(
      prop, channel::Position::from_polar(500.0, 0.0)));  // far away
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast, users,
                       beamforming::Codebook{}, 6, {}, nullptr, ws);
  // Any group containing user 2 has zero rate and is pruned.
  for (const auto& g : groups) EXPECT_FALSE(g.contains(2));
  EXPECT_EQ(groups.size(), 3u);  // subsets of {0, 1}
}

TEST(EnumerateGroups, EmptyUsersThrow) {
  SchedWorkspace ws;
  EXPECT_THROW(enumerate_groups(beamforming::Scheme::kOptimizedMulticast, {},
                                beamforming::Codebook{}, 7, {}, nullptr, ws),
               std::invalid_argument);
}

TEST(EnumerateGroups, TooManyUsersThrow) {
  // The hierarchical generator serves up to 64 users; 65 still throws.
  SchedWorkspace ws;
  EXPECT_THROW(enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                                make_users(65), beamforming::Codebook{}, 8, {},
                                nullptr, ws),
               std::invalid_argument);
}

TEST(EnumerateGroups, SeventeenUsersUseTheClusterTree) {
  // Past the hierarchical threshold the exhaustive lattice is replaced by
  // cluster-tree candidates: every user still gets a singleton (coverage),
  // masks stay ascending, and the candidate count is far below 2^17.
  const int n = 17;
  const auto users = make_users(n, 8.0);
  SchedWorkspace ws;
  const auto groups = enumerate_groups(
      beamforming::Scheme::kOptimizedMulticast, users,
      beamforming::Codebook{}, 31, {}, nullptr, ws);
  EXPECT_FALSE(groups.empty());
  EXPECT_LE(groups.size(), 256u);
  for (int u = 0; u < n; ++u) {
    bool singleton = false;
    for (const auto& g : groups)
      singleton |= g.mask == GroupMask{1} << u;
    EXPECT_TRUE(singleton) << "no singleton for user " << u;
  }
  for (std::size_t i = 1; i < groups.size(); ++i)
    EXPECT_LT(groups[i - 1].mask, groups[i].mask);
}

TEST(EnumerateGroups, GroupRatesReflectBottleneck) {
  SchedWorkspace ws;
  channel::PropagationConfig prop;
  std::vector<linalg::CVector> users;
  users.push_back(channel::make_channel(
      prop, channel::Position::from_polar(3.0, 0.0)));   // strong
  users.push_back(channel::make_channel(
      prop, channel::Position::from_polar(16.0, 0.5)));  // weak
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast, users,
                       beamforming::Codebook{}, 9, {}, nullptr, ws);
  const GroupSpec *solo0 = nullptr, *pair = nullptr;
  for (const auto& g : groups) {
    if (g.mask == 0b1) solo0 = &g;
    if (std::popcount(g.mask) == 2) pair = &g;
  }
  ASSERT_TRUE(solo0 && pair);
  EXPECT_GT(solo0->beam.rate.value, pair->beam.rate.value);
}

TEST(GroupSpec, ContainsWorks) {
  GroupSpec g;
  g.mask = 0b101010;  // users 1, 3, 5
  EXPECT_TRUE(g.contains(3));
  EXPECT_FALSE(g.contains(2));
  EXPECT_FALSE(g.contains(64));  // past the mask: never a member
  g.mask = GroupMask{1} << 63;
  EXPECT_TRUE(g.contains(63));
}

TEST(EnumerateGroups, EightUsersEnumerationCompletes) {
  SchedWorkspace ws;
  const auto groups =
      enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                       make_users(8, 8.0), beamforming::Codebook{}, 10, {},
                       nullptr, ws);
  EXPECT_GT(groups.size(), 120u);  // large subsets split power 8-way and
                                   // some fall below MCS 1; most survive
  EXPECT_LE(groups.size(), 255u);
}

// --- Per-subset RNG decoupling (the PR 5 bug fix) ------------------------

bool same_beam(const beamforming::GroupBeam& a,
               const beamforming::GroupBeam& b) {
  if (a.beam.size() != b.beam.size() || a.rate.value != b.rate.value ||
      a.min_rss.value != b.min_rss.value)
    return false;
  for (std::size_t i = 0; i < a.beam.size(); ++i)
    if (a.beam[i] != b.beam[i]) return false;
  return true;
}

TEST(EnumerateGroups, SeedOverloadIsDeterministic) {
  const auto users = make_users(4);
  SchedWorkspace ws_a, ws_b;
  const auto a = enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                                  users, beamforming::Codebook{}, 77, {},
                                  nullptr, ws_a);
  const auto b = enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                                  users, beamforming::Codebook{}, 77, {},
                                  nullptr, ws_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mask, b[i].mask);
    EXPECT_TRUE(same_beam(a[i].beam, b[i].beam));
  }
}

TEST(EnumerateGroups, FilterKnobsDoNotPerturbSurvivingBeams) {
  // The old coupling: one shared Rng threaded through every subset's SVD
  // power iteration, so excluding a user or tightening the threshold
  // shifted the RNG stream consumed by every *later* subset. Each subset
  // now derives its RNG from (seed, member bitmask); surviving groups'
  // beams must be bit-identical under any filter combination.
  const auto users = make_users(5);
  const std::uint64_t seed = 13;
  SchedWorkspace ws_full, ws_filtered;
  const auto full = enumerate_groups(beamforming::Scheme::kOptimizedMulticast,
                                     users, beamforming::Codebook{}, seed, {},
                                     nullptr, ws_full);

  std::vector<GroupEnumConfig> cfgs(4);
  cfgs[1].max_group_size = 2;
  cfgs[2].rate_threshold = Mbps{500.0};
  cfgs[3].max_group_size = 3;
  const std::vector<std::uint8_t> exclude{0, 0, 1, 0, 1};  // users 2 and 4

  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    Membership who;
    if (c == 3) who.exclude = exclude;
    const auto filtered = enumerate_groups(
        beamforming::Scheme::kOptimizedMulticast, users,
        beamforming::Codebook{}, seed, cfgs[c], nullptr, ws_filtered, who);
    for (const auto& g : filtered) {
      const GroupSpec* match = nullptr;
      for (const auto& f : full)
        if (f.mask == g.mask) match = &f;
      ASSERT_NE(match, nullptr);
      EXPECT_TRUE(same_beam(g.beam, match->beam))
          << "beam for mask " << g.mask << " perturbed by filter";
    }
  }
}

TEST(EnumerateGroups, ParallelEnumerationBitIdenticalToSerial) {
  const auto users = make_users(6);
  SchedWorkspace ws_serial, ws_parallel;
  const auto serial = enumerate_groups(
      beamforming::Scheme::kOptimizedMulticast, users,
      beamforming::Codebook{}, 21, {}, nullptr, ws_serial);
  ThreadPool pool(4);
  const auto parallel = enumerate_groups(
      beamforming::Scheme::kOptimizedMulticast, users,
      beamforming::Codebook{}, 21, {}, &pool, ws_parallel);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].mask, parallel[i].mask);
    EXPECT_TRUE(same_beam(serial[i].beam, parallel[i].beam));
  }
}

TEST(SubsetSeed, MixesMaskAndSeed) {
  // Distinct masks (and distinct session seeds) must land in distinct RNG
  // streams; a collision would couple two subsets' power iterations.
  std::vector<std::uint64_t> seen;
  for (std::uint32_t mask = 1; mask < 64; ++mask)
    seen.push_back(subset_seed(7, mask));
  for (std::size_t i = 0; i < seen.size(); ++i)
    for (std::size_t j = i + 1; j < seen.size(); ++j)
      EXPECT_NE(seen[i], seen[j]);
  EXPECT_NE(subset_seed(7, 3), subset_seed(8, 3));
}

TEST(BeamformSubsets, BatchedPathBitIdenticalToSubsetBeam) {
  // The subset-lane batch path (pre-normalized rows + one user Gram) must
  // reproduce subset_beam bit for bit on every mask shape:
  // singletons, merges, and groups containing a dead (zero) channel.
  auto users = make_users(6);
  // Zero out user 4's channel to exercise the dead-member path.
  users[4] = linalg::CVector(users[4].size());
  const std::uint64_t seed = 55;
  std::vector<GroupMask> masks;
  for (GroupMask mask = 1; mask < (GroupMask{1} << users.size()); ++mask)
    masks.push_back(mask);
  SchedWorkspace ws;
  beamform_priority_into(beamforming::Scheme::kOptimizedMulticast, users,
                         masks, masks.size(), {}, beamforming::Codebook{},
                         seed, nullptr, ws);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const auto direct =
        subset_beam(beamforming::Scheme::kOptimizedMulticast, users,
                    masks[i], beamforming::Codebook{}, seed);
    EXPECT_TRUE(same_beam(ws.beams[i], direct))
        << "batched beam differs for mask " << masks[i];
  }
}

TEST(PlanCandidates, BoundPruningIsExactOnTheExhaustivePath) {
  // Everything the bound prunes would have been emission-filtered anyway:
  // the surviving-group set must match a full enumeration's exactly.
  channel::PropagationConfig prop;
  auto users = make_users(4, 6.0);
  users.push_back(channel::make_channel(
      prop, channel::Position::from_polar(400.0, 0.2)));  // unreachable
  GroupEnumConfig cfg;
  cfg.rate_threshold = Mbps{700.0};
  SchedWorkspace ws;
  plan_candidates_into(beamforming::Scheme::kOptimizedMulticast, users, cfg,
                       {}, ws);
  EXPECT_GT(ws.plan.pruned, 0u);  // the far user's subsets never beamform
  const auto groups = enumerate_groups(
      beamforming::Scheme::kOptimizedMulticast, users,
      beamforming::Codebook{}, 5, cfg, nullptr, ws);
  for (const auto& g : groups) {
    EXPECT_FALSE(g.contains(4));
    EXPECT_GE(g.beam.rate.value, 700.0);
  }
}

}  // namespace
}  // namespace w4k::sched
