// Fuzz target: the w4kd wire parsers (serve/wire.h). Any process can
// write to the daemon's loopback UDP port, and a client's UDP_GRO socket
// hands whatever arrived to the segment splitter, so parse_ctrl,
// parse_data and split_segments must reject malformed bytes cleanly:
// never crash, never read outside the buffer, never yield a packet whose
// lengths disagree with its bytes. Every accepted message must also be
// exactly the bytes its serializer writes: two different datagrams never
// parse to the same message.
//
// Input: a little-endian u16 gso_size, then the received bytes. The
// bytes go to parse_ctrl and parse_data whole and to split_segments cut
// by that gso_size.
#include "serve/wire.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace {

using namespace w4k::serve::wire;

void check_packet(const DataPacket& p, const std::uint8_t* seg,
                  std::size_t n) {
  if (n != kPrefixBytes + kSymbolHeaderBytes + p.payload_size)
    __builtin_trap();
  if (p.payload != seg + kPrefixBytes + kSymbolHeaderBytes) __builtin_trap();
  if (p.payload_size != p.header.symbol_bytes || p.header.k == 0 ||
      p.payload_size == 0)
    __builtin_trap();
  // Byte-exact round trip of the prefix and the symbol header.
  std::uint8_t out[kPrefixBytes + kSymbolHeaderBytes];
  serialize_prefix(p.sub_id, {out, kPrefixBytes});
  serialize_symbol_header(p.header, {out + kPrefixBytes, kSymbolHeaderBytes});
  if (std::memcmp(out, seg, sizeof out) != 0) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const std::size_t gso_size = data[0] | (std::size_t{data[1]} << 8);
  const std::uint8_t* buf = data + 2;
  const std::size_t n = size - 2;

  // A control message that parses is byte for byte what serialize_ctrl
  // writes for it.
  if (const auto m = parse_ctrl(buf, n)) {
    std::uint8_t out[kCtrlBytes];
    serialize_ctrl(*m, out);
    if (n != kCtrlBytes || std::memcmp(out, buf, kCtrlBytes) != 0)
      __builtin_trap();
  }

  if (const auto p = parse_data(buf, n)) check_packet(*p, buf, n);

  // Every segment is either handed over whole and consistent or counted
  // as a rejection; the splitter accounts for each one exactly once.
  std::size_t parsed = 0, offset = 0;
  const std::size_t rejected = split_segments(
      buf, n, gso_size, [&](const DataPacket& p, std::size_t seg_bytes) {
        const std::uint8_t* seg = p.payload - kPrefixBytes -
                                  kSymbolHeaderBytes;
        if (seg < buf + offset || seg + seg_bytes > buf + n) __builtin_trap();
        check_packet(p, seg, seg_bytes);
        offset = static_cast<std::size_t>(seg - buf) + seg_bytes;
        ++parsed;
      });
  if (gso_size == 0 || gso_size > n) {
    if (rejected != 1 || parsed != 0) __builtin_trap();
  } else if (parsed + rejected != (n + gso_size - 1) / gso_size) {
    __builtin_trap();
  }
  return 0;
}
