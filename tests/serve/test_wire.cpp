// Wire-format round trips and strict-parse rejections for the w4kd
// protocol. The parser guards the daemon's control socket (any process
// can write to a loopback UDP port) and the loadgen's data path, so
// every length/magic/version disagreement must reject cleanly.
#include "serve/wire.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

namespace w4k::serve::wire {
namespace {

TEST(ServeWire, CtrlRoundTrip) {
  std::array<std::uint8_t, kCtrlBytes> buf{};
  CtrlMsg m;
  m.type = CtrlType::kHeartbeat;
  m.sub_id = 0xdeadbeefcafe0123ull;
  serialize_ctrl(m, buf);
  const auto back = parse_ctrl(buf.data(), buf.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, CtrlType::kHeartbeat);
  EXPECT_EQ(back->sub_id, m.sub_id);
}

TEST(ServeWire, CtrlRejectsMalformed) {
  std::array<std::uint8_t, kCtrlBytes> buf{};
  serialize_ctrl(CtrlMsg{CtrlType::kSubscribe, 7}, buf);
  EXPECT_FALSE(parse_ctrl(buf.data(), buf.size() - 1));  // short
  auto bad = buf;
  bad[0] ^= 0xff;  // magic
  EXPECT_FALSE(parse_ctrl(bad.data(), bad.size()));
  bad = buf;
  bad[4] = 99;  // version
  EXPECT_FALSE(parse_ctrl(bad.data(), bad.size()));
  bad = buf;
  bad[5] = 17;  // unknown type
  EXPECT_FALSE(parse_ctrl(bad.data(), bad.size()));
}

TEST(ServeWire, CtrlRejectsNonZeroReservedBytes) {
  // Bytes 6-7 are reserved: a datagram that sets them is not the message
  // serialize_ctrl would write, so it must not parse to one.
  std::array<std::uint8_t, kCtrlBytes> buf{};
  serialize_ctrl(CtrlMsg{CtrlType::kHeartbeat, 7}, buf);
  ASSERT_TRUE(parse_ctrl(buf.data(), buf.size()));
  for (const std::size_t i : {6, 7}) {
    auto bad = buf;
    bad[i] = 1;
    EXPECT_FALSE(parse_ctrl(bad.data(), bad.size())) << "byte " << i;
  }
}

std::array<std::uint8_t, 256> make_data_packet(std::size_t payload,
                                               std::size_t* total) {
  std::array<std::uint8_t, 256> buf{};
  serialize_prefix(42, buf);
  SymbolHeader h;
  h.frame_id = 0xfffffffe;  // near the wrap on purpose
  h.layer = 1;
  h.sublayer = 2;
  h.esi = 777;
  h.k = 8;
  h.n_frame_symbols = 3;
  h.symbol_bytes = static_cast<std::uint32_t>(payload);
  h.block_seed = 0x1122334455667788ull;
  serialize_symbol_header(h, {buf.data() + kPrefixBytes,
                              buf.size() - kPrefixBytes});
  for (std::size_t i = 0; i < payload; ++i)
    buf[kPrefixBytes + kSymbolHeaderBytes + i] =
        static_cast<std::uint8_t>(i);
  *total = kPrefixBytes + kSymbolHeaderBytes + payload;
  return buf;
}

TEST(ServeWire, DataRoundTrip) {
  std::size_t total = 0;
  const auto buf = make_data_packet(64, &total);
  const auto pkt = parse_data(buf.data(), total);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->sub_id, 42u);
  EXPECT_EQ(pkt->header.frame_id, 0xfffffffeu);
  EXPECT_EQ(pkt->header.layer, 1);
  EXPECT_EQ(pkt->header.sublayer, 2);
  EXPECT_EQ(pkt->header.esi, 777u);
  EXPECT_EQ(pkt->header.k, 8);
  EXPECT_EQ(pkt->header.n_frame_symbols, 3);
  EXPECT_EQ(pkt->header.block_seed, 0x1122334455667788ull);
  ASSERT_EQ(pkt->payload_size, 64u);
  EXPECT_EQ(pkt->payload[63], 63);
}

TEST(ServeWire, DataRejectsLengthDisagreement) {
  std::size_t total = 0;
  const auto buf = make_data_packet(64, &total);
  EXPECT_TRUE(parse_data(buf.data(), total));
  // A truncated datagram must not yield a short symbol.
  EXPECT_FALSE(parse_data(buf.data(), total - 1));
  // Extra trailing bytes are equally a framing error.
  EXPECT_FALSE(parse_data(buf.data(), total + 1));
  // Shorter than any header at all.
  EXPECT_FALSE(parse_data(buf.data(), kPrefixBytes));
}

TEST(ServeWire, DataRejectsBadMagicAndDegenerateFields) {
  std::size_t total = 0;
  auto buf = make_data_packet(16, &total);
  buf[1] ^= 0x40;
  EXPECT_FALSE(parse_data(buf.data(), total));

  // k == 0 and symbol_bytes == 0 are both meaningless on the wire.
  buf = make_data_packet(16, &total);
  buf[kPrefixBytes + 12] = 0;  // k (little-endian u16)
  buf[kPrefixBytes + 13] = 0;
  EXPECT_FALSE(parse_data(buf.data(), total));
}

TEST(ServeWire, DataRejectsNonZeroReservedPrefixBytes) {
  std::size_t total = 0;
  const auto buf = make_data_packet(16, &total);
  ASSERT_TRUE(parse_data(buf.data(), total));
  for (const std::size_t i : {5, 6, 7}) {
    auto bad = buf;
    bad[i] = 1;
    EXPECT_FALSE(parse_data(bad.data(), total)) << "byte " << i;
  }
}

// Concatenates data packets as a UDP_GRO socket returns them: one buffer,
// one segment per datagram.
std::vector<std::uint8_t> coalesce(const std::vector<std::size_t>& payloads) {
  std::vector<std::uint8_t> out;
  for (const std::size_t p : payloads) {
    std::size_t total = 0;
    const auto buf = make_data_packet(p, &total);
    out.insert(out.end(), buf.begin(), buf.begin() + total);
  }
  return out;
}

struct Split {
  std::vector<std::size_t> payloads, bytes;
  std::size_t rejected = 0;
};

Split split(const std::vector<std::uint8_t>& buf, std::size_t gso_size) {
  Split s;
  s.rejected = split_segments(buf.data(), buf.size(), gso_size,
                              [&](const DataPacket& p, std::size_t n) {
                                s.payloads.push_back(p.payload_size);
                                s.bytes.push_back(n);
                              });
  return s;
}

TEST(ServeWire, SplitCutsCoalescedBufferEveryGsoSize) {
  const auto buf = coalesce({40, 40, 40});
  const Split s = split(buf, kPrefixBytes + kSymbolHeaderBytes + 40);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.payloads, (std::vector<std::size_t>{40, 40, 40}));
  EXPECT_EQ(s.bytes, (std::vector<std::size_t>{84, 84, 84}));

  // The last segment of a GRO buffer may be shorter.
  const Split tail = split(coalesce({40, 40, 12}), 84);
  EXPECT_EQ(tail.rejected, 0u);
  EXPECT_EQ(tail.payloads, (std::vector<std::size_t>{40, 40, 12}));

  // An uncoalesced datagram is the gso_size == size case.
  const auto one = coalesce({40});
  const Split plain = split(one, one.size());
  EXPECT_EQ(plain.rejected, 0u);
  EXPECT_EQ(plain.payloads.size(), 1u);
}

TEST(ServeWire, SplitRejectsDegenerateGsoSizeAndBadSegments) {
  const auto buf = coalesce({40, 40, 40});
  // gso_size 0 or above the received length: the whole buffer, once.
  for (const std::size_t gso : {std::size_t{0}, buf.size() + 1}) {
    const Split s = split(buf, gso);
    EXPECT_EQ(s.rejected, 1u) << gso;
    EXPECT_TRUE(s.payloads.empty()) << gso;
  }
  // A zero-length datagram parses nothing.
  EXPECT_EQ(split_segments(buf.data(), 0, 0, [](const DataPacket&,
                                                std::size_t) {}),
            1u);

  // A corrupt middle segment is rejected alone; its neighbours parse.
  auto bad = buf;
  bad[84 + 1] ^= 0x40;  // second segment's magic
  const Split s = split(bad, 84);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.payloads.size(), 2u);

  // A gso_size that does not match the datagrams misframes every segment
  // and rejects each; nothing parses as a short symbol.
  const Split wrong = split(buf, 80);
  EXPECT_TRUE(wrong.payloads.empty());
  EXPECT_EQ(wrong.rejected, 4u);  // ceil(252 / 80)
}

TEST(ServeWire, CtrlAndDataMagicsDiffer) {
  // The worker demultiplexes control from stray traffic by magic alone.
  EXPECT_NE(kCtrlMagic, kDataMagic);
}

}  // namespace
}  // namespace w4k::serve::wire
