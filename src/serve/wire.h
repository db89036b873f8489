// Wire format for the w4kd serving daemon (DESIGN.md Sec. 4j).
//
// Two message families cross the loopback UDP socket:
//
//   * control (client -> worker): SUBSCRIBE / HEARTBEAT / UNSUBSCRIBE,
//     16 bytes, identified by a 64-bit subscriber id. One client socket
//     can carry many virtual subscribers, so the id — not the source
//     address — names the subscription.
//   * data (worker -> client): a 16-byte per-subscriber prefix followed
//     by the shared symbol record. The record (symbol header + fountain
//     symbol payload) is written exactly once per frame into a BufferPool
//     slot and fanned out to every subscriber via scatter/gather I/O; only
//     the prefix differs per packet, which is what makes the steady-state
//     send path allocation- and copy-free.
//
// All integers are serialized little-endian with explicit shifts (the
// format is loopback-local today, but the encoding must not depend on
// host endianness). Sequence fields wrap: receivers order frame ids with
// transport::seq_less, never operator<.
#pragma once

#include "fec/fountain.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace w4k::serve::wire {

inline constexpr std::uint32_t kCtrlMagic = 0x43344b57u;  // "W4KC" on the wire
inline constexpr std::uint32_t kDataMagic = 0x44344b57u;  // "W4KD" on the wire
inline constexpr std::uint8_t kVersion = 1;

// --- Control messages (client -> worker) -----------------------------------

enum class CtrlType : std::uint8_t {
  kSubscribe = 1,
  kHeartbeat = 2,
  kUnsubscribe = 3,
};

struct CtrlMsg {
  CtrlType type = CtrlType::kSubscribe;
  std::uint64_t sub_id = 0;
};

/// magic u32 | version u8 | type u8 | reserved u16 | sub_id u64.
inline constexpr std::size_t kCtrlBytes = 16;

/// Writes the 16-byte control message; `out` must hold kCtrlBytes.
void serialize_ctrl(const CtrlMsg& m, std::span<std::uint8_t> out);

/// Strict parse: exact size, magic, version, known type, zero reserved
/// bytes. nullopt rejects.
std::optional<CtrlMsg> parse_ctrl(const std::uint8_t* data, std::size_t size);

// --- Data packets (worker -> client) ---------------------------------------

/// Per-subscriber prefix: magic u32 | version u8 | reserved u8 | reserved
/// u16 | sub_id u64. The only part of a data packet that differs between
/// subscribers of the same symbol.
inline constexpr std::size_t kPrefixBytes = 16;

void serialize_prefix(std::uint64_t sub_id, std::span<std::uint8_t> out);

/// Shared symbol record header, written once per symbol into the pool
/// slot: frame_id u32 | layer u16 | sublayer u16 | esi u32 | k u16 |
/// n_frame_symbols u16 | symbol_bytes u32 | block_seed u64. block_seed
/// travels in-band so a receiver can reconstruct coefficient rows (and
/// decode) without any out-of-band exchange.
struct SymbolHeader {
  std::uint32_t frame_id = 0;    ///< wraps; order with transport::seq_less
  std::uint16_t layer = 0;
  std::uint16_t sublayer = 0;
  fec::Esi esi = 0;
  std::uint16_t k = 0;
  std::uint16_t n_frame_symbols = 0;  ///< total symbols in this frame
  std::uint32_t symbol_bytes = 0;     ///< payload length after the header
  std::uint64_t block_seed = 0;
};

inline constexpr std::size_t kSymbolHeaderBytes = 28;

/// Writes the 28-byte header; `out` must hold kSymbolHeaderBytes.
void serialize_symbol_header(const SymbolHeader& h,
                             std::span<std::uint8_t> out);

/// One fully parsed data packet (views into the receive buffer).
struct DataPacket {
  std::uint64_t sub_id = 0;
  SymbolHeader header;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

/// Strict parse of prefix + header + payload. Rejects short buffers, bad
/// magic/version, non-zero reserved bytes, and any length disagreement
/// between the buffer and header.symbol_bytes (a truncated datagram must
/// not yield a short symbol that would poison the decoder).
std::optional<DataPacket> parse_data(const std::uint8_t* data,
                                     std::size_t size);

/// Splits one received buffer into its datagrams and parses each with
/// parse_data. A UDP_GRO socket may hand back several datagrams of one
/// sender coalesced into one buffer, cut every `gso_size` bytes (the last
/// segment may be shorter); a plain datagram is the gso_size == size case.
/// Calls `on_packet(packet, segment_bytes)` for every segment that parses
/// and returns the rejections: 1 for a gso_size of 0 or above `size`
/// (nothing is parsed), otherwise one per segment parse_data refuses.
template <class OnPacket>
std::size_t split_segments(const std::uint8_t* data, std::size_t size,
                           std::size_t gso_size, OnPacket&& on_packet) {
  if (gso_size == 0 || gso_size > size) return 1;
  std::size_t rejected = 0;
  for (std::size_t off = 0; off < size; off += gso_size) {
    const std::size_t n = std::min(gso_size, size - off);
    if (const auto pkt = parse_data(data + off, n))
      on_packet(*pkt, n);
    else
      ++rejected;
  }
  return rejected;
}

}  // namespace w4k::serve::wire
