// Fuzz target: the binary CSI-trace loader (channel/trace_io.h), V2
// framing; the corpus keeps a V1 seed, which the loader must reject as
// bad magic. Recorded traces travel between machines and builds; a
// corrupt or truncated file must throw std::runtime_error naming the bad
// record — never crash or allocate absurdly (the loader's header
// plausibility caps are part of the contract).
#include "channel/trace_io.h"

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const auto trace = w4k::channel::load_trace(is, "<fuzz>");
    // Anything the loader accepts must be a well-formed, finite trace.
    if (trace.steps() == 0 || trace.users() == 0) __builtin_trap();
    if (!std::isfinite(trace.interval) || trace.interval <= 0.0)
      __builtin_trap();
    for (const auto& step : trace.snapshots) {
      if (step.size() != trace.users()) __builtin_trap();
      for (const auto& h : step)
        for (std::size_t n = 0; n < h.size(); ++n)
          if (!std::isfinite(h[n].real()) || !std::isfinite(h[n].imag()))
            __builtin_trap();
    }
  } catch (const std::runtime_error&) {
    // The documented rejection path.
  }
  return 0;
}
