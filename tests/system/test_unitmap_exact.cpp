// Validates the Eq. 4 greedy against the exhaustive reference solver on
// randomized tiny instances: the greedy should be optimal or very close
// (it is a heuristic; the paper uses it because the ILP is impractical).
#include "sched/unitmap.h"
#include "support/masks.h"

#include <gtest/gtest.h>

namespace w4k::sched {
namespace {

GroupSpec make_group(std::vector<std::size_t> members) {
  GroupSpec g;
  g.mask = test::mask_of(members);
  g.beam.rate = Mbps{40.0};
  return g;
}

/// Tiny unit list: `n` units in layer 0 with the given k values.
std::vector<UnitSpec> tiny_units(const std::vector<std::size_t>& ks) {
  std::vector<UnitSpec> units;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    UnitSpec u;
    u.id.layer = 0;
    u.id.sublayer = static_cast<std::uint16_t>(i);
    u.k_symbols = ks[i];
    u.source_bytes = ks[i] * 100;
    units.push_back(u);
  }
  return units;
}

TEST(UnitMapExact, GreedyOptimalOnDisjointGroups) {
  // Two disjoint groups, each with exactly enough budget for both units.
  const auto units = tiny_units({2, 2});
  std::vector<GroupSpec> groups{make_group({0}), make_group({1})};
  std::vector<LayerArray> bytes(2);
  bytes[0][0] = 400.0;
  bytes[1][0] = 400.0;
  UnitMapScratch scratch;
  UnitMapResult greedy;
  map_to_units_into(groups, bytes, units, 2, 100, scratch, greedy);
  EXPECT_EQ(decoded_bytes_objective(greedy, units),
            exact_unit_objective(groups, bytes, units, 2, 100));
}

TEST(UnitMapExact, GreedySuboptimalityOnOverlapIsBoundedAndKnown) {
  // A documented limitation of the paper's ascending-order heuristic:
  // with overlapping groups it serves early units through both groups
  // instead of spreading to later units. Here greedy reaches 1200 of the
  // optimal 1400 decoded bytes (86%) — the exact solver quantifies the
  // gap instead of hiding it.
  const auto units = tiny_units({2, 2, 2});
  std::vector<GroupSpec> groups{make_group({0, 1}), make_group({1, 2})};
  std::vector<LayerArray> bytes(2);
  bytes[0][0] = 400.0;  // 4 symbols
  bytes[1][0] = 400.0;
  UnitMapScratch scratch;
  UnitMapResult greedy;
  map_to_units_into(groups, bytes, units, 3, 100, scratch, greedy);
  const std::size_t exact = exact_unit_objective(groups, bytes, units, 3, 100);
  EXPECT_EQ(decoded_bytes_objective(greedy, units), 1200u);
  EXPECT_EQ(exact, 1400u);
}

TEST(UnitMapExact, GreedyWithinHalfOfOptimalOnAdversarialInstances) {
  // Random tiny instances with heavily overlapping groups and mixed unit
  // sizes — the regime that maximally stresses the ascending-order
  // heuristic. In the real pipeline units have uniform k = 20 and budgets
  // arrive in whole-unit granularity from the optimizer, so these gaps
  // shrink; the invariant here is "never below half of optimal, never
  // above it, usually equal".
  Rng rng(99);
  int equal = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const std::size_t n_units = 2 + rng.below(2);   // 2-3 units
    const std::size_t n_groups = 2 + rng.below(2);  // 2-3 groups
    std::vector<std::size_t> ks;
    for (std::size_t i = 0; i < n_units; ++i)
      ks.push_back(1 + rng.below(3));  // k in 1..3
    const auto units = tiny_units(ks);

    std::vector<GroupSpec> groups;
    for (std::size_t g = 0; g < n_groups; ++g) {
      std::vector<std::size_t> members;
      for (std::size_t u = 0; u < 3; ++u)
        if (rng.chance(0.6)) members.push_back(u);
      if (members.empty()) members.push_back(rng.below(3));
      groups.push_back(make_group(members));
    }
    std::vector<LayerArray> bytes(groups.size());
    for (auto& b : bytes) b[0] = static_cast<double>(rng.below(5)) * 100.0;

    UnitMapScratch scratch;

    UnitMapResult greedy;
    map_to_units_into(groups, bytes, units, 3, 100, scratch, greedy);
    const std::size_t greedy_obj = decoded_bytes_objective(greedy, units);
    const std::size_t exact = exact_unit_objective(groups, bytes, units, 3, 100);
    ASSERT_LE(greedy_obj, exact) << "greedy cannot beat the optimum";
    EXPECT_GE(greedy_obj * 2, exact)
        << "trial " << t << ": greedy " << greedy_obj << " vs exact "
        << exact;
    equal += greedy_obj == exact ? 1 : 0;
  }
  // The greedy should still be exactly optimal on most cases.
  EXPECT_GE(equal * 2, trials);
}

TEST(UnitMapExact, ExactRefusesHugeInstances) {
  const auto units = tiny_units({20, 20, 20, 20, 20, 20});
  std::vector<GroupSpec> groups{make_group({0}), make_group({1}),
                                make_group({0, 1}), make_group({2}),
                                make_group({0, 2})};
  std::vector<LayerArray> bytes(groups.size());
  for (auto& b : bytes) b[0] = 120000.0;
  EXPECT_THROW(exact_unit_objective(groups, bytes, units, 3, 100),
               std::invalid_argument);
}

TEST(UnitMapExact, ObjectiveCountsDecodedBytes) {
  const auto units = tiny_units({2, 3});
  UnitMapResult r;
  r.user_decodes = {{true, false}, {true, true}};
  EXPECT_EQ(decoded_bytes_objective(r, units), 200u + 200u + 300u);
}

}  // namespace
}  // namespace w4k::sched
