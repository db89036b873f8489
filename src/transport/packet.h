// UDP-style packet framing for the multicast data plane.
//
// The system runs over UDP (Sec. 2.7): loss recovery is fountain-coded
// retransmission, not ARQ, so a packet is just a header identifying which
// coding unit and encoding symbol it carries plus the symbol payload. The
// emulator strips the payload and tracks symbol counts only; the daemon's
// concrete wire format is serve/wire.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace w4k::transport {

// ---------------------------------------------------------------------------
// Serial-number arithmetic (RFC 1982 style) for the wrapping sequence
// fields below. `frame_id` is a u32 that a long-lived sender increments
// every frame and `group_id` a u16: both wrap, so ordering and distance
// comparisons on the feedback/dedupe path must NOT use plain `<` — at the
// wrap boundary 0x00000000 is *newer* than 0xffffffff. Equality checks
// are wrap-safe as-is.
//
// seq_less(a, b): a precedes b, i.e. the forward distance a -> b is in
// (0, 2^(N-1)). Comparisons exactly half the space apart are ambiguous by
// construction; this implementation reports them as unordered (both
// seq_less(a, b) and seq_less(b, a) false), matching RFC 1982.

/// Forward (wrapping) distance from `from` to `to`: how many increments
/// move `from` onto `to`. Well-defined for any pair.
template <typename U>
constexpr U seq_distance(U from, U to) {
  static_assert(std::is_unsigned_v<U>, "serial arithmetic is unsigned");
  return static_cast<U>(to - from);
}

/// True when `a` is strictly earlier than `b` in serial-number order.
template <typename U>
constexpr bool seq_less(U a, U b) {
  static_assert(std::is_unsigned_v<U>, "serial arithmetic is unsigned");
  constexpr U half = static_cast<U>(U(1) << (sizeof(U) * 8 - 1));
  const U d = static_cast<U>(b - a);
  return d != 0 && d < half;
}

/// True when `a` is at or earlier than `b` in serial-number order.
template <typename U>
constexpr bool seq_less_eq(U a, U b) {
  return a == b || seq_less(a, b);
}

/// Per-packet header bytes on the air: frame id, group id, unit id and
/// encoding symbol id ahead of the symbol payload.
inline constexpr std::size_t kHeaderBytes = 16;

}  // namespace w4k::transport
