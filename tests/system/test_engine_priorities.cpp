// The engine's layer-priority behaviour: under a constrained budget the
// schedule (and the makeup rounds) must favour lower layers — losing
// layer 0 is lethal, losing layer 3 is cosmetic (Sec. 2.7).
#include "emu/engine.h"

#include <gtest/gtest.h>

namespace w4k::emu {
namespace {

/// Units across all four layers, `per_layer` units each, k symbols each.
std::vector<sched::UnitSpec> layered_units(std::size_t per_layer,
                                           std::size_t k) {
  std::vector<sched::UnitSpec> units;
  for (int l = 0; l < video::kNumLayers; ++l) {
    for (std::size_t i = 0; i < per_layer; ++i) {
      sched::UnitSpec u;
      u.id.layer = static_cast<std::uint16_t>(l);
      u.id.sublayer = static_cast<std::uint16_t>(i);
      u.source_bytes = k * 100;
      u.k_symbols = k;
      units.push_back(u);
    }
  }
  return units;
}

GroupTx group(double mbps, double loss) {
  GroupTx g;
  g.mask = 0b1;
  g.mcs = *channel::mcs_by_index(8);
  g.drain_rate = Mbps{mbps};
  g.bucket_rate = Mbps{mbps};
  g.member_loss = {loss};
  return g;
}

EngineConfig cfg_100b() {
  EngineConfig cfg;
  cfg.symbol_size = 100;
  cfg.header_bytes = 0;
  return cfg;
}

TEST(EnginePriorities, BudgetExhaustionDropsHighestLayersFirst) {
  const auto units = layered_units(5, 10);  // 20 units, 5 per layer
  std::vector<sched::UnitAssignment> assignments;
  for (std::size_t i = 0; i < units.size(); ++i)
    assignments.push_back({0, i, units[i].k_symbols});
  TxEngine engine(cfg_100b());
  Rng rng(1);
  // Budget for roughly half the frame.
  FrameTxResult res;
  engine.run_frame_into(units, assignments, {group(2.5, 0.0)}, 1, rng, {}, {},
                        res);
  // Whatever was decoded must be a prefix in layer order: no decoded unit
  // may come after an undecoded one.
  bool seen_undecoded = false;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!res.user_decoded[0][i]) seen_undecoded = true;
    else EXPECT_FALSE(seen_undecoded) << "unit " << i << " out of order";
  }
  // Layer 0 fully decoded, layer 3 not.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(res.user_decoded[0][i]);
  EXPECT_FALSE(res.user_decoded[0][19]);
}

TEST(EnginePriorities, MakeupRepairsLowLayersBeforeHighOnes) {
  // Heavy loss + tight makeup budget: the repaired units must again form
  // a low-layer-first prefix rather than scattering across layers.
  const auto units = layered_units(4, 10);
  std::vector<sched::UnitAssignment> assignments;
  for (std::size_t i = 0; i < units.size(); ++i)
    assignments.push_back({0, i, units[i].k_symbols});
  // The schedule takes 21.3 ms at 6 Mbps; a frame cut to 72% (24 ms)
  // leaves ~14 makeup packets after the first report, enough for layer
  // 0's repairs and part of layer 1's. Whether one repaired unit decodes
  // is luck at 25% loss, so the decodes are counted over 40 frames.
  FrameFaultState tight;
  tight.budget_scale = 0.72;
  std::array<int, video::kNumLayers> decoded{};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    TxEngine engine(cfg_100b());
    Rng rng(seed);
    FrameTxResult res;
    engine.run_frame_into(units, assignments, {group(6.0, 0.25)}, 1, rng,
                          tight, {}, res);
    for (std::size_t i = 0; i < units.size(); ++i)
      decoded[units[i].id.layer] += res.user_decoded[0][i] ? 1 : 0;
  }
  // Per-layer counts must be monotone non-increasing.
  for (int l = 1; l < video::kNumLayers; ++l)
    EXPECT_LE(decoded[l], decoded[l - 1]) << "layer " << l;
  EXPECT_GT(decoded[0], 0);
}

TEST(EnginePriorities, AssignmentOrderIsTransmissionOrder) {
  // Reversing the assignment order must reverse which units survive a
  // tight budget — the engine honors the scheduler's priority exactly.
  const auto units = layered_units(5, 10);
  std::vector<sched::UnitAssignment> reversed;
  for (std::size_t i = units.size(); i-- > 0;)
    reversed.push_back({0, i, units[i].k_symbols});
  TxEngine engine(cfg_100b());
  Rng rng(3);
  FrameTxResult res;
  engine.run_frame_into(units, reversed, {group(2.5, 0.0)}, 1, rng, {}, {},
                        res);
  EXPECT_TRUE(res.user_decoded[0][19]);   // last unit now goes first
  EXPECT_FALSE(res.user_decoded[0][0]);
}

}  // namespace
}  // namespace w4k::emu
