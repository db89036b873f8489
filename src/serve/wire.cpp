#include "serve/wire.h"

namespace w4k::serve::wire {
namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void serialize_ctrl(const CtrlMsg& m, std::span<std::uint8_t> out) {
  put_u32(out.data(), kCtrlMagic);
  out[4] = kVersion;
  out[5] = static_cast<std::uint8_t>(m.type);
  put_u16(out.data() + 6, 0);
  put_u64(out.data() + 8, m.sub_id);
}

std::optional<CtrlMsg> parse_ctrl(const std::uint8_t* data, std::size_t size) {
  if (size != kCtrlBytes) return std::nullopt;
  if (get_u32(data) != kCtrlMagic || data[4] != kVersion) return std::nullopt;
  if (get_u16(data + 6) != 0) return std::nullopt;  // reserved
  CtrlMsg m;
  switch (data[5]) {
    case 1: m.type = CtrlType::kSubscribe; break;
    case 2: m.type = CtrlType::kHeartbeat; break;
    case 3: m.type = CtrlType::kUnsubscribe; break;
    default: return std::nullopt;
  }
  m.sub_id = get_u64(data + 8);
  return m;
}

void serialize_prefix(std::uint64_t sub_id, std::span<std::uint8_t> out) {
  put_u32(out.data(), kDataMagic);
  out[4] = kVersion;
  out[5] = 0;
  put_u16(out.data() + 6, 0);
  put_u64(out.data() + 8, sub_id);
}

void serialize_symbol_header(const SymbolHeader& h,
                             std::span<std::uint8_t> out) {
  std::uint8_t* p = out.data();
  put_u32(p, h.frame_id);
  put_u16(p + 4, h.layer);
  put_u16(p + 6, h.sublayer);
  put_u32(p + 8, h.esi);
  put_u16(p + 12, h.k);
  put_u16(p + 14, h.n_frame_symbols);
  put_u32(p + 16, h.symbol_bytes);
  put_u64(p + 20, h.block_seed);
}

std::optional<DataPacket> parse_data(const std::uint8_t* data,
                                     std::size_t size) {
  if (size < kPrefixBytes + kSymbolHeaderBytes) return std::nullopt;
  if (get_u32(data) != kDataMagic || data[4] != kVersion) return std::nullopt;
  if (data[5] != 0 || get_u16(data + 6) != 0) return std::nullopt;  // reserved
  DataPacket pkt;
  pkt.sub_id = get_u64(data + 8);
  const std::uint8_t* p = data + kPrefixBytes;
  pkt.header.frame_id = get_u32(p);
  pkt.header.layer = get_u16(p + 4);
  pkt.header.sublayer = get_u16(p + 6);
  pkt.header.esi = get_u32(p + 8);
  pkt.header.k = get_u16(p + 12);
  pkt.header.n_frame_symbols = get_u16(p + 14);
  pkt.header.symbol_bytes = get_u32(p + 16);
  pkt.header.block_seed = get_u64(p + 20);
  const std::size_t expect = kPrefixBytes + kSymbolHeaderBytes +
                             pkt.header.symbol_bytes;
  if (size != expect) return std::nullopt;
  if (pkt.header.k == 0 || pkt.header.symbol_bytes == 0) return std::nullopt;
  pkt.payload = data + kPrefixBytes + kSymbolHeaderBytes;
  pkt.payload_size = pkt.header.symbol_bytes;
  return pkt;
}

}  // namespace w4k::serve::wire
