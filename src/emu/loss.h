// Packet-loss model for WiGig links under pseudo multicast (Sec. 3.2).
//
// The paper associates one STA normally (it enjoys MAC-layer ARQ and CSMA
// backoff) and puts the rest in monitor mode (they sniff the same frames
// with no link-layer recovery). Loss probability is driven by the margin
// between the instantaneous RSS and the sensitivity of the MCS in use:
// at the moment of MCS selection the margin is >= 0, but the channel moves
// between beacon updates, so margins can go negative mid-frame in mobile
// traces — exactly the regime where fountain-coded makeup packets matter.
// The exponential decay (1.2 per dB of positive margin) and growth (1.0
// per dB of negative margin) rates live in loss.cpp.
#pragma once

#include "channel/mcs.h"
#include "common/units.h"

namespace w4k::emu {

/// Residual loss floor even with ample margin (interference, CRC).
inline constexpr double kLossFloor = 0.001;
/// Loss at exactly 0 dB margin for a monitor-mode receiver, on top of the
/// floor.
inline constexpr double kLossAtZeroMargin = 0.08;
/// MAC retry factor for the associated STA: its effective loss is the
/// monitor-mode loss raised to this power (independent retries).
inline constexpr double kMacRetries = 2.0;

/// Per-packet loss probability for a monitor-mode receiver at the given
/// RSS under the given MCS. Always in [0, 1]: non-finite inputs (e.g. an
/// RSS computed from a corrupted CSI beacon) saturate to certain loss
/// instead of propagating NaN into the reception sampling.
double monitor_loss(Dbm rss, const channel::McsEntry& mcs);

/// Per-packet loss probability for the associated (MAC-ARQ) receiver.
/// Clamped to [0, 1] with the same non-finite saturation.
double associated_loss(Dbm rss, const channel::McsEntry& mcs);

}  // namespace w4k::emu
