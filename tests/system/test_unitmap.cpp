#include "sched/unitmap.h"

#include "support/masks.h"

#include <gtest/gtest.h>

namespace w4k::sched {
namespace {

GroupSpec make_group(std::vector<std::size_t> members, double mbps = 40.0) {
  GroupSpec g;
  g.mask = test::mask_of(members);
  g.beam.rate = Mbps{mbps};
  return g;
}

TEST(FrameUnits, CountsAndSizesAt512x288) {
  // symbol 100 B, 20 symbols/unit -> unit = 2000 B.
  const auto units = frame_units(512, 288, 100, 20);
  // L0: 3456 B -> 2 units; L1: 4 x 3456 -> 8; L2: 4 x 13824 -> 28;
  // L3: 4 x 55296 -> 112. Total 150.
  EXPECT_EQ(units.size(), 150u);
  std::size_t total_bytes = 0;
  for (const auto& u : units) {
    EXPECT_GT(u.k_symbols, 0u);
    EXPECT_LE(u.k_symbols, 20u);
    EXPECT_EQ(u.k_symbols, (u.source_bytes + 99) / 100);
    total_bytes += u.source_bytes;
  }
  std::size_t expect = 0;
  for (int l = 0; l < video::kNumLayers; ++l)
    expect += video::layer_bytes(l, 512, 288);
  EXPECT_EQ(total_bytes, expect);
}

TEST(FrameUnits, LayerOrderAndIndexing) {
  const auto units = frame_units(512, 288, 100, 20);
  int prev_layer = 0;
  std::uint16_t expected_index = 0;
  for (const auto& u : units) {
    if (u.id.layer != prev_layer) {
      EXPECT_EQ(u.id.layer, prev_layer + 1);
      prev_layer = u.id.layer;
      expected_index = 0;
    }
    EXPECT_EQ(u.id.sublayer, expected_index++);
  }
  EXPECT_EQ(prev_layer, 3);
}

TEST(FrameUnits, OffsetsPartitionSublayers) {
  const auto units = frame_units(512, 288, 100, 20);
  // Within each (layer, sublayer_k) the offsets must tile the buffer.
  std::size_t cursor = 0;
  int cur_layer = 0, cur_k = 0;
  for (const auto& u : units) {
    if (u.id.layer != cur_layer || u.sublayer_k != cur_k) {
      cur_layer = u.id.layer;
      cur_k = u.sublayer_k;
      cursor = 0;
    }
    EXPECT_EQ(u.offset, cursor);
    cursor += u.source_bytes;
  }
}

TEST(FrameUnits, PaperGeometryAt4K) {
  const auto units = frame_units(4096, 2160, 6000, 20);
  // 4K layer sizes: 207360 / 829440 / 3317760 / 13271040 bytes.
  // Unit = 120 kB.
  std::size_t count_l0 = 0;
  for (const auto& u : units) count_l0 += u.id.layer == 0 ? 1 : 0;
  EXPECT_EQ(count_l0, 2u);  // 207360 / 120000 -> 2 units
  EXPECT_GT(units.size(), 140u);
}

TEST(FrameUnits, BadGeometryThrows) {
  EXPECT_THROW(frame_units(512, 288, 0, 20), std::invalid_argument);
  EXPECT_THROW(frame_units(512, 288, 100, 0), std::invalid_argument);
}

TEST(MapToUnits, SingleGroupFullBudgetDecodesEverything) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0, 1})};
  std::vector<LayerArray> bytes(1);
  for (int l = 0; l < video::kNumLayers; ++l) {
    double need = 0.0;
    for (const auto& u : units)
      if (u.id.layer == l) need += static_cast<double>(u.k_symbols) * 100.0;
    bytes[0][static_cast<std::size_t>(l)] = need;
  }
  UnitMapScratch scratch;
  UnitMapResult res;
  map_to_units_into(groups, bytes, units, 2, 100, scratch, res);
  for (std::size_t u = 0; u < 2; ++u)
    for (std::size_t i = 0; i < units.size(); ++i)
      EXPECT_TRUE(res.user_decodes[u][i]) << "user " << u << " unit " << i;
  EXPECT_EQ(res.leftover_symbols, 0u);
}

TEST(MapToUnits, InsufficientBudgetDecodesPrefix) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0})};
  std::vector<LayerArray> bytes(1);
  bytes[0][0] = 2000.0;  // one unit's worth of layer 0 (which has 2 units)
  UnitMapScratch scratch;
  UnitMapResult res;
  map_to_units_into(groups, bytes, units, 1, 100, scratch, res);
  EXPECT_TRUE(res.user_decodes[0][0]);
  EXPECT_FALSE(res.user_decodes[0][1]);
}

TEST(MapToUnits, OverlappingGroupsShareSymbols) {
  // User 1 belongs to both groups; the greedy should not double-send
  // what user 1 already gets from the first group.
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0, 1}), make_group({1, 2})};
  std::vector<LayerArray> bytes(2);
  bytes[0][0] = 2000.0;  // exactly unit 0 of layer 0
  bytes[1][0] = 2000.0;
  UnitMapScratch scratch;
  UnitMapResult res;
  map_to_units_into(groups, bytes, units, 3, 100, scratch, res);
  // Unit 0: group 0 sends k symbols reaching users 0 and 1. Group 1 then
  // only needs to top up user 2 -> k more. Unit 1 gets nothing (budget
  // spent), but no symbols were wasted re-serving user 1.
  EXPECT_TRUE(res.user_decodes[0][0]);
  EXPECT_TRUE(res.user_decodes[1][0]);
  EXPECT_TRUE(res.user_decodes[2][0]);
  std::size_t sent = 0;
  for (const auto& a : res.assignments) sent += a.symbols;
  EXPECT_EQ(sent, 2u * units[0].k_symbols);
}

TEST(MapToUnits, AssignmentsInPriorityOrder) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0}), make_group({0, 1})};
  std::vector<LayerArray> bytes(2);
  for (int l = 0; l < video::kNumLayers; ++l) {
    bytes[0][static_cast<std::size_t>(l)] = 4000.0;
    bytes[1][static_cast<std::size_t>(l)] = 4000.0;
  }
  UnitMapScratch scratch;
  UnitMapResult res;
  map_to_units_into(groups, bytes, units, 2, 100, scratch, res);
  // Unit indices must be non-decreasing; within a unit, group ids ascend.
  std::size_t prev_unit = 0;
  std::size_t prev_group = 0;
  for (const auto& a : res.assignments) {
    EXPECT_GE(a.unit_index, prev_unit);
    if (a.unit_index == prev_unit && &a != &res.assignments.front()) {
      EXPECT_GT(a.group, prev_group);
    }
    prev_unit = a.unit_index;
    prev_group = a.group;
  }
}

TEST(MapToUnits, LeftoverReportedWhenBudgetExceedsNeed) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0})};
  std::vector<LayerArray> bytes(1);
  // Layer 0 needs 3500 B (35 symbols padded); give it 10000.
  bytes[0][0] = 10000.0;
  UnitMapScratch scratch;
  UnitMapResult res;
  map_to_units_into(groups, bytes, units, 1, 100, scratch, res);
  EXPECT_TRUE(res.user_decodes[0][0]);
  EXPECT_TRUE(res.user_decodes[0][1]);
  EXPECT_EQ(res.leftover_symbols, 100u - 35u);
}

TEST(MapToUnits, SizeMismatchThrows) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0})};
  std::vector<LayerArray> bytes(2);  // wrong: 2 byte rows, 1 group
  UnitMapScratch scratch;
  UnitMapResult res;
  EXPECT_THROW(map_to_units_into(groups, bytes, units, 1, 100, scratch, res),
               std::invalid_argument);
}

TEST(MapToUnits, MaskLimitsThrow) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0, 2})};
  std::vector<LayerArray> bytes(1);
  UnitMapScratch scratch;
  UnitMapResult res;
  // User 2 is past n_users = 2.
  EXPECT_THROW(map_to_units_into(groups, bytes, units, 2, 100, scratch, res),
               std::invalid_argument);
  // More users than a group mask can name.
  EXPECT_THROW(map_to_units_into(groups, bytes, units, 65, 100, scratch, res),
               std::invalid_argument);
  EXPECT_NO_THROW(
      map_to_units_into(groups, bytes, units, 3, 100, scratch, res));
}

TEST(MapToUnits, UserSymbolsMatchAssignments) {
  const auto units = frame_units(512, 288, 100, 20);
  std::vector<GroupSpec> groups{make_group({0, 1}), make_group({0})};
  std::vector<LayerArray> bytes(2);
  bytes[0][2] = 6000.0;
  bytes[1][2] = 3000.0;
  UnitMapScratch scratch;
  UnitMapResult res;
  map_to_units_into(groups, bytes, units, 2, 100, scratch, res);
  std::vector<std::size_t> expect0(units.size(), 0), expect1(units.size(), 0);
  for (const auto& a : res.assignments) {
    if (groups[a.group].contains(0)) expect0[a.unit_index] += a.symbols;
    if (groups[a.group].contains(1)) expect1[a.unit_index] += a.symbols;
  }
  EXPECT_EQ(res.user_symbols[0], expect0);
  EXPECT_EQ(res.user_symbols[1], expect1);
}

}  // namespace
}  // namespace w4k::sched
