// Fuzz target: the multi-AP room geometry text parser
// (channel::parse_geometry). Geometry files are hand-written and travel
// with scenarios; a malformed one must throw std::runtime_error naming
// the bad line — never crash — and anything accepted must be usable: 1 to
// kMaxAps APs with finite poses in a room whose sides are finite and > 0.
#include "channel/multi_ap.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const auto geo =
        w4k::channel::parse_geometry(is, w4k::channel::PropagationConfig{});
    if (geo.n_aps() == 0 || geo.n_aps() > w4k::channel::kMaxAps)
      __builtin_trap();
    for (const auto& ap : geo.aps)
      if (!std::isfinite(ap.pos.x) || !std::isfinite(ap.pos.y) ||
          !std::isfinite(ap.boresight_rad))
        __builtin_trap();
    const auto& room = geo.prop.room;
    if (!std::isfinite(room.length) || !std::isfinite(room.width) ||
        !(room.length > 0.0) || !(room.width > 0.0))
      __builtin_trap();
  } catch (const std::runtime_error&) {
    // The documented rejection path.
  }
  return 0;
}
