// CSI trace persistence (Sec. 2.8: "we record the RSS traces measured at
// each receiver to compute CSI. We then use the CSI trace to drive
// emulation"). The binary format is versioned and self-describing so
// recorded traces can be replayed across builds:
//
//   magic "W4KCSIT2" | u32 steps | u32 users | u32 antennas | f64 interval
//   then per step: u32 step id, then users x (2 f64 position +
//   antennas x 2 f64 channel).
//
// Any other magic, the retired version 1 ("W4KCSIT1") included, is
// rejected. The loader validates as it goes: truncated rows, non-finite
// values, and out-of-order step ids all throw std::runtime_error naming
// the offending step/user record.
#pragma once

#include "channel/mobility.h"

#include <iosfwd>
#include <string>

namespace w4k::channel {

/// Writes a trace. Throws std::runtime_error on I/O failure or an empty /
/// ragged trace (every snapshot must have the same user and antenna count).
void save_trace(const CsiTrace& trace, const std::string& path);

/// Reads a trace written by save_trace. Throws
/// std::runtime_error on missing file, bad magic, implausible header,
/// truncation, non-finite values, or out-of-order step ids — the message
/// names the offending record.
CsiTrace load_trace(const std::string& path);

/// Stream variant — the same loader over any byte source (fuzz harnesses
/// feed it in-memory buffers). `name` labels error messages.
CsiTrace load_trace(std::istream& is, const std::string& name);

}  // namespace w4k::channel
