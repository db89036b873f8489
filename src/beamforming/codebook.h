// Pre-defined sector codebook (802.11ad SLS).
//
// Commodity WiGig front-ends ship a fixed codebook of at most K = 128
// sector beams with coarse (2-bit) phase shifters; the paper's
// "pre-defined" beamforming schemes select from exactly such a codebook,
// while the "optimized" schemes synthesize beams from estimated CSI.
#pragma once

#include "linalg/matrix.h"

#include <cstddef>
#include <vector>

namespace w4k::beamforming {

struct Codebook {
  std::vector<linalg::CVector> beams;

  std::size_t size() const { return beams.size(); }
  const linalg::CVector& operator[](std::size_t i) const { return beams[i]; }
};

/// Phase-shifter resolution of commodity front-ends (the QCA6320's 2 bits).
inline constexpr int kPhaseBits = 2;
/// Azimuth fan (rad, either side of boresight) the sector beams cover.
inline constexpr double kSectorAzimuth = 1.2;

struct CodebookConfig {
  std::size_t n_antennas = 32;
  std::size_t n_beams = 64;        ///< <= 128 on Sparrow+-class hardware
};

/// Sector beams across +-kSectorAzimuth with steering directions uniform
/// in sin(azimuth) — uniform beam spacing in the array's natural
/// coordinate — each quantized to kPhaseBits and normalized to unit total
/// power.
Codebook make_sector_codebook(const CodebookConfig& cfg);

/// One beamwidth level of a hierarchical 802.11ad codebook: beams formed
/// on a leading subarray of `subarray` elements (the rest muted), giving a
/// lobe ~n_antennas/subarray times wider at 10*log10(subarray) dB gain.
struct CodebookLevel {
  std::size_t subarray = 32;
  std::size_t n_beams = 24;
};

/// Multi-level codebook, matching commodity 802.11ad designs that stack
/// quasi-omni, wide, and fine sector levels. Total beams across levels
/// must stay within the 128-entry hardware limit.
Codebook make_multilevel_codebook(std::size_t n_antennas,
                                  const std::vector<CodebookLevel>& levels,
                                  int phase_bits = kPhaseBits,
                                  double max_abs_azimuth = kSectorAzimuth);

/// Appends dual-lobe beams: every pair from an `n_directions` grid, each
/// realized by steering the two array halves at the two directions — the
/// phase-only trick multicast codebook proposals use to serve two spread
/// receivers with one pre-defined entry (~9 dB per lobe on 32 elements).
/// Throws if the total would exceed the 128-entry limit.
void append_dual_lobe_beams(Codebook& cb, std::size_t n_antennas,
                            std::size_t n_directions,
                            int phase_bits = kPhaseBits,
                            double max_abs_azimuth = kSectorAzimuth);

/// The commodity codebook the pre-defined schemes select from: a
/// hierarchical design for the 32-element array with 20 fine 32-element
/// sectors for unicast, wide (8-element) and quasi-omni (4-element)
/// levels, plus 91 dual-lobe entries (a 14-direction grid over +-1.06 rad)
/// so a single pre-defined beam can serve two angularly spread multicast
/// receivers. 123 entries, within the 128-beam hardware limit. Built once.
const Codebook& commodity_codebook();

}  // namespace w4k::beamforming
