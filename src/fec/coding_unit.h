// Coding-unit framing (Sec. 2.6).
//
// The paper uses one Jigsaw *sublayer* as the rateless coding unit, with
// 20 symbols of 6000 B each. Packets within a coding unit are equivalent
// (any of them contributes the same amount toward decoding) while packets
// of different units carry disjoint information — this is what lets the
// scheduler track reception at sublayer granularity instead of per packet.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>

namespace w4k::fec {

/// Paper defaults: symbol size 6000 B (Fig. 2 sweet spot), 20 symbols per
/// sublayer.
inline constexpr std::size_t kDefaultSymbolSize = 6000;
inline constexpr std::size_t kDefaultSymbolsPerUnit = 20;

/// Identifies a coding unit inside one video frame: (layer, sublayer).
struct UnitId {
  std::uint16_t layer = 0;
  std::uint16_t sublayer = 0;

  friend auto operator<=>(const UnitId&, const UnitId&) = default;
};

}  // namespace w4k::fec
