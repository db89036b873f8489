// UDP GSO fan-out and UDP_GRO receive. The worker sends each
// subscriber's run of equal-size packets as one UDP_SEGMENT message; the
// single-datagram path is the same loop with a segment cap of 1. These
// tests pin that both paths put the same bytes on the wire, that a
// kernel refusal of GSO re-sends instead of dropping, and that a UDP_GRO
// client sees the same packets as a plain one.
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/wire.h"
#include "support/serve_access.h"

#include <gtest/gtest.h>

#include <netinet/udp.h>
#include <sys/socket.h>

#include <cstring>
#include <map>
#include <tuple>
#include <vector>

namespace w4k::serve {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kMaxPayload = 7000;  // 7044 B segments: 9 per message

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

DaemonConfig gso_config() {
  DaemonConfig cfg;
  cfg.status = false;
  cfg.workers = 1;
  cfg.pool_slots = 64;
  cfg.source.symbol_bytes = kMaxPayload;
  // Small batches so runs also end at the batch limit.
  cfg.worker.batch_packets = 16;
  return cfg;
}

// Frames with chosen payload sizes (the source's are all equal): a frame
// whose runs end at the 65507 B message limit, one whose sizes change
// mid-frame, one whose runs end at the batch limit.
const std::vector<std::vector<std::uint32_t>>& frame_plans() {
  static const std::vector<std::vector<std::uint32_t>> plans = {
      std::vector<std::uint32_t>(20, kMaxPayload),
      {300, 300, 300, 120, 120, 300, 6000, 6000, 6000, 1, 300, 300},
      std::vector<std::uint32_t>(40, 200),
  };
  return plans;
}

// Writes one frame's records into fresh pool slots and hands the
// references to worker 0.
void publish_plan(Daemon& d, FrameDesc& f, std::uint32_t frame_id,
                  const std::vector<std::uint32_t>& payloads) {
  f.frame_id = frame_id;
  f.n_symbols = static_cast<std::uint32_t>(payloads.size());
  for (std::uint32_t i = 0; i < f.n_symbols; ++i) {
    const std::uint32_t slot = d.pool().acquire();
    ASSERT_NE(slot, BufferPool::kNoSlot);
    const auto rec = d.pool().slot(slot);
    wire::SymbolHeader h;
    h.frame_id = frame_id;
    h.esi = i;
    h.k = 4;
    h.n_frame_symbols = static_cast<std::uint16_t>(f.n_symbols);
    h.symbol_bytes = payloads[i];
    h.block_seed = 1000 + frame_id;
    wire::serialize_symbol_header(h, rec);
    for (std::uint32_t j = 0; j < payloads[i]; ++j)
      rec[wire::kSymbolHeaderBytes + j] =
          static_cast<std::uint8_t>(frame_id * 31 + i * 7 + j);
    f.slots[i] = slot;
    f.bytes[i] =
        static_cast<std::uint32_t>(wire::kSymbolHeaderBytes + payloads[i]);
  }
  f.workers_pending.store(1);
  ASSERT_TRUE(d.worker(0).publish(&f));
}

void run_until_sent(Worker& w) {
  for (int i = 0; i < 100 && w.backlog() > 0; ++i) w.run_once(0);
  ASSERT_EQ(w.backlog(), 0u);
}

void set_gro(int fd, int on) {
  ASSERT_EQ(setsockopt(fd, SOL_UDP, UDP_GRO, &on, sizeof on), 0);
}

// Every datagram waiting on `fd`, verbatim, keyed by the sub id in its
// prefix. The socket must have UDP_GRO off.
std::map<std::uint64_t, std::vector<Bytes>> read_datagrams(int fd) {
  std::map<std::uint64_t, std::vector<Bytes>> out;
  Bytes buf(1 << 16);
  while (true) {
    const ssize_t r = recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (r < 0) break;
    const auto pkt = wire::parse_data(buf.data(), static_cast<std::size_t>(r));
    EXPECT_TRUE(pkt.has_value());
    if (pkt) out[pkt->sub_id].emplace_back(buf.begin(), buf.begin() + r);
  }
  return out;
}

struct PassResult {
  std::map<std::uint64_t, std::vector<Bytes>> streams;
  std::uint64_t packets = 0, bytes = 0, gso_sends = 0, errors = 0;
};

PassResult send_plans(Daemon& d, Client& rx, std::uint32_t first_id) {
  Worker& w = d.worker(0);
  const std::uint64_t p0 = w.packets_sent();
  const std::uint64_t b0 = counter("serve.w0.bytes_sent");
  const std::uint64_t g0 = counter("serve.w0.gso_sends");
  const std::uint64_t e0 = counter("serve.w0.send_errors");
  std::vector<FrameDesc> frames(frame_plans().size());
  PassResult r;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    publish_plan(d, frames[i], first_id + static_cast<std::uint32_t>(i),
                 frame_plans()[i]);
    run_until_sent(w);
    for (auto& [sub, pkts] : read_datagrams(rx.fd()))
      for (auto& p : pkts) r.streams[sub].push_back(std::move(p));
  }
  r.packets = w.packets_sent() - p0;
  r.bytes = counter("serve.w0.bytes_sent") - b0;
  r.gso_sends = counter("serve.w0.gso_sends") - g0;
  r.errors = counter("serve.w0.send_errors") - e0;
  return r;
}

// Records a packet's fields and payload, minus the sub id.
using Seen = std::tuple<std::uint32_t, std::uint16_t, std::uint16_t,
                        std::uint32_t, Bytes>;

std::vector<std::vector<Seen>> drain_seen(Client& c) {
  std::vector<std::vector<Seen>> seen(c.options().n_subs);
  c.on_packet = [&](const wire::DataPacket& p) {
    seen[p.sub_id - c.options().first_sub_id].emplace_back(
        p.header.frame_id, p.header.layer, p.header.sublayer, p.header.esi,
        Bytes(p.payload, p.payload + p.payload_size));
  };
  c.drain();
  c.on_packet = nullptr;
  return seen;
}

std::size_t plan_packets() {
  std::size_t n = 0;
  for (const auto& p : frame_plans()) n += p.size();
  return n;
}

TEST(ServeWorker, GsoAndSingleDatagramPathsSendIdenticalBytes) {
  obs::set_enabled(true);
  Daemon d(gso_config());
  Worker& w = d.worker(0);
  ASSERT_GT(WorkerTestAccess::segment_cap(w), 1u);

  Client::Options o;
  o.port = d.port();
  o.n_subs = 3;
  o.first_sub_id = 10;
  o.rcvbuf_bytes = 8 << 20;
  Client rx(o);
  set_gro(rx.fd(), 0);  // one datagram per recv: the wire bytes verbatim
  rx.subscribe_all();
  w.run_once(50);
  ASSERT_EQ(w.subscribers(), 3u);

  const PassResult gso = send_plans(d, rx, 100);
  WorkerTestAccess::set_segment_cap(w, 1);
  const PassResult single = send_plans(d, rx, 100);

  EXPECT_GT(gso.gso_sends, 0u) << "the GSO path never ran";
  EXPECT_EQ(single.gso_sends, 0u);
  EXPECT_EQ(gso.errors, 0u);
  EXPECT_EQ(single.errors, 0u);
  EXPECT_EQ(gso.packets, 3 * plan_packets());
  EXPECT_EQ(gso.packets, single.packets);
  EXPECT_EQ(gso.bytes, single.bytes);
  ASSERT_EQ(gso.streams.size(), 3u);
  for (const auto& [sub, pkts] : gso.streams) {
    EXPECT_EQ(pkts.size(), plan_packets()) << "sub " << sub;
    EXPECT_TRUE(pkts == single.streams.at(sub)) << "sub " << sub;
  }
}

// SO_NO_CHECK makes the kernel refuse UDP_SEGMENT with EINVAL, as a NIC
// whose MTU is below the segment size does. The worker must drop to one
// datagram per message for good and re-send the refused message, not
// count it lost.
TEST(ServeWorker, RefusedGsoFallsBackWithoutLoss) {
  obs::set_enabled(true);
  Daemon d(gso_config());
  Worker& w = d.worker(0);
  const int one = 1;
  ASSERT_EQ(setsockopt(WorkerTestAccess::data_fd(w), SOL_SOCKET, SO_NO_CHECK,
                       &one, sizeof one),
            0);

  Client::Options o;
  o.port = d.port();
  o.n_subs = 2;
  o.first_sub_id = 50;
  o.rcvbuf_bytes = 8 << 20;
  Client rx(o);
  set_gro(rx.fd(), 0);
  rx.subscribe_all();
  w.run_once(50);
  ASSERT_EQ(w.subscribers(), 2u);

  const PassResult r = send_plans(d, rx, 7);
  EXPECT_EQ(WorkerTestAccess::segment_cap(w), 1u);
  EXPECT_EQ(r.gso_sends, 0u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.packets, 2 * plan_packets());
  for (const auto& [sub, pkts] : r.streams)
    EXPECT_EQ(pkts.size(), plan_packets()) << "sub " << sub;
}

TEST(ServeClient, GroAndPlainSocketsReceiveIdenticalPackets) {
  obs::set_enabled(true);
  Daemon d(gso_config());
  Worker& w = d.worker(0);

  Client::Options o;
  o.port = d.port();
  o.n_subs = 2;
  o.rcvbuf_bytes = 8 << 20;
  o.first_sub_id = 1;
  Client gro(o);  // UDP_GRO on, as every Client asks
  o.first_sub_id = 3;
  Client plain(o);
  set_gro(plain.fd(), 0);
  gro.subscribe_all();
  plain.subscribe_all();
  w.run_once(50);
  ASSERT_EQ(w.subscribers(), 4u);

  const std::uint64_t g0 = counter("serve.w0.gso_sends");
  std::vector<FrameDesc> frames(frame_plans().size());
  std::vector<std::vector<Seen>> a(2), b(2);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    publish_plan(d, frames[i], static_cast<std::uint32_t>(i), frame_plans()[i]);
    run_until_sent(w);
    const auto ga = drain_seen(gro), pb = drain_seen(plain);
    for (std::size_t s = 0; s < 2; ++s) {
      a[s].insert(a[s].end(), ga[s].begin(), ga[s].end());
      b[s].insert(b[s].end(), pb[s].begin(), pb[s].end());
    }
  }
  EXPECT_GT(counter("serve.w0.gso_sends") - g0, 0u);
  EXPECT_EQ(gro.parse_errors(), 0u);
  EXPECT_EQ(plain.parse_errors(), 0u);
  EXPECT_EQ(gro.total_packets(), 2 * plan_packets());
  EXPECT_EQ(gro.total_packets(), plain.total_packets());
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(a[s].size(), plan_packets());
    EXPECT_TRUE(a[s] == b[s]) << "sub " << s;
    EXPECT_EQ(gro.stats()[s].bytes, plain.stats()[s].bytes);
  }

  // Not vacuous: on this path the kernel really hands a GRO socket
  // several datagrams in one buffer.
  o.first_sub_id = 5;
  Client raw(o);  // UDP_GRO on; read below without drain()
  raw.subscribe_all();
  w.run_once(50);
  FrameDesc f;
  publish_plan(d, f, 99, frame_plans()[2]);
  run_until_sent(w);
  drain_seen(gro);
  drain_seen(plain);
  Bytes buf(1 << 16);
  alignas(cmsghdr) std::uint8_t ctrl[CMSG_SPACE(sizeof(int))];
  iovec iov{buf.data(), buf.size()};
  msghdr h{};
  h.msg_iov = &iov;
  h.msg_iovlen = 1;
  h.msg_control = ctrl;
  h.msg_controllen = sizeof ctrl;
  const ssize_t r = recvmsg(raw.fd(), &h, MSG_DONTWAIT);
  ASSERT_GT(r, 0);
  int gso_size = 0;
  for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c))
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO)
      std::memcpy(&gso_size, CMSG_DATA(c), sizeof gso_size);
  EXPECT_EQ(gso_size, static_cast<int>(wire::kPrefixBytes +
                                       wire::kSymbolHeaderBytes + 200));
  EXPECT_GT(r, gso_size);
}

}  // namespace
}  // namespace w4k::serve
