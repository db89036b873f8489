// w4k_loadgen: loopback load generator for w4kd.
//
// Emulates --subs virtual subscribers multiplexed over --sockets UDP
// sockets (the daemon keys subscriptions on 64-bit sub ids, not source
// addresses, so one socket carries thousands of subscribers — the
// container's fd limit never binds). Each socket connect()s so the
// kernel's SO_REUSEPORT hash spreads sockets across daemon workers.
//
// Sends heartbeats, drains data packets, optionally kills a fraction of
// the sockets mid-run (crash emulation: no unsubscribe — the daemon must
// reap them via heartbeat expiry), optionally fountain-decodes one
// subscriber's stream as an end-to-end correctness probe, and prints a
// summary plus a machine-readable `LOADGEN_JSON {...}` line consumed by
// scripts/serve_smoke.sh and the system tests. A malformed or
// out-of-range flag exits 2 with a one-line error.
#include "common/args.h"
#include "fec/fountain.h"
#include "serve/client.h"
#include "transport/packet.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

/// Virtual subscribers: each costs a stats slot in its client.
constexpr int kMaxSubs = 1'000'000;
/// Sockets, one file descriptor each.
constexpr int kMaxSockets = 1024;
/// Longest run or kill delay: a day.
constexpr double kMaxSeconds = 86'400.0;

double mono_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Decode probe: one FountainDecoder per (layer, sublayer) unit of
// subscriber 0's stream. The source block is persistent and the ESI
// stream rateless across frames, so the decoder accumulates symbols
// until rank k, counts a decode, then re-arms — each subsequent decode
// consumes k fresh innovative symbols, a rolling end-to-end proof that
// sender coefficients and receiver reconstruction agree. Every field it
// needs (k, block_seed, symbol size) travels in-band.
struct DecodeProbe {
  std::map<std::uint32_t, w4k::fec::FountainDecoder> units;  // layer<<16|sub
  std::uint64_t unit_count = 0;
  std::uint64_t decodes = 0;

  void feed(const w4k::serve::wire::DataPacket& pkt) {
    const auto& h = pkt.header;
    const std::uint32_t key =
        (static_cast<std::uint32_t>(h.layer) << 16) | h.sublayer;
    const std::size_t source_size =
        static_cast<std::size_t>(h.k) * h.symbol_bytes;
    auto it = units.find(key);
    if (it == units.end()) {
      ++unit_count;
      it = units
               .emplace(key, w4k::fec::FountainDecoder(
                                 h.k, h.symbol_bytes, source_size,
                                 h.block_seed))
               .first;
    }
    w4k::fec::FountainDecoder& dec = it->second;
    w4k::fec::Symbol s;
    s.esi = h.esi;
    s.data.assign(pkt.payload, pkt.payload + pkt.payload_size);
    dec.add_symbol(s);
    if (dec.can_decode()) {
      ++decodes;
      dec.reset(h.k, h.symbol_bytes, source_size, h.block_seed);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace w4k;
  int port = 0;
  std::string host;
  int subs = 0;
  int sockets = 0;
  double duration_s = 0.0;
  double heartbeat_s = 0.0;
  double kill_fraction = 0.0;
  double kill_after_s = 0.0;
  bool decode = false;
  bool json_only = false;
  try {
    Args args(argc, argv);
    port = args.get_in("port", 9460, 1, 65535);
    host = args.get("host", std::string("127.0.0.1"));
    subs = args.get_in("subs", 64, 1, kMaxSubs);
    sockets = args.get_in("sockets", 4, 1, std::min(subs, kMaxSockets));
    duration_s = args.get_in("duration-s", 3.0, 0.0, kMaxSeconds);
    heartbeat_s = args.get_in("heartbeat-ms", 500.0, 1.0, 60'000.0) / 1e3;
    kill_fraction = args.get_in("kill-fraction", 0.0, 0.0, 1.0);
    kill_after_s = args.get_in("kill-after-s", 0.0, 0.0, kMaxSeconds);
    decode = args.get("decode", false);
    json_only = args.get("json", false);

    const auto unknown = args.unqueried();
    if (!unknown.empty()) {
      for (const auto& u : unknown)
        std::fprintf(stderr, "unknown argument: --%s\n", u.c_str());
      return 2;
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "w4k_loadgen: %s\n", e.what());
    return 2;
  }

  // Spread subs across sockets; contiguous id ranges per socket.
  std::vector<std::unique_ptr<serve::Client>> clients;
  std::uint64_t next_id = 1;
  for (int i = 0; i < sockets; ++i) {
    const std::size_t share = static_cast<std::size_t>(subs) / sockets +
                              (i < subs % sockets ? 1 : 0);
    serve::Client::Options o;
    o.host = host;
    o.port = static_cast<std::uint16_t>(port);
    o.n_subs = share;
    o.first_sub_id = next_id;
    next_id += share;
    clients.push_back(std::make_unique<serve::Client>(o));
  }

  DecodeProbe probe;
  if (decode) {
    const std::uint64_t probe_id = clients[0]->options().first_sub_id;
    clients[0]->on_packet = [&probe,
                             probe_id](const serve::wire::DataPacket& p) {
      if (p.sub_id == probe_id) probe.feed(p);
    };
  }

  for (auto& c : clients) c->subscribe_all();

  const double t0 = mono_now();
  double last_heartbeat = t0;
  const int to_kill = static_cast<int>(kill_fraction * sockets);
  bool killed = false;
  std::size_t killed_subs = 0;

  std::vector<pollfd> fds(clients.size());
  while (mono_now() - t0 < duration_s) {
    std::size_t nf = 0;
    for (auto& c : clients)
      if (c->alive()) fds[nf++] = pollfd{c->fd(), POLLIN, 0};
    poll(fds.data(), static_cast<nfds_t>(nf), 50);
    for (auto& c : clients)
      if (c->alive()) c->drain();
    const double now = mono_now();
    if (now - last_heartbeat >= heartbeat_s) {
      for (auto& c : clients)
        if (c->alive()) c->heartbeat_all();
      last_heartbeat = now;
    }
    if (!killed && kill_after_s > 0.0 && now - t0 >= kill_after_s) {
      for (int i = 0; i < to_kill; ++i) {
        killed_subs += clients[i]->options().n_subs;
        clients[i]->kill();
      }
      killed = true;
    }
  }
  for (auto& c : clients) {
    if (c->alive()) {
      c->drain();
      c->unsubscribe_all();
    }
  }

  // Delivered fraction over surviving subscribers: received packets
  // relative to the best-served subscriber (sent-counter view needs the
  // daemon side; the smoke script cross-checks /status).
  std::uint64_t total = 0, parse_errors = 0, best = 0;
  std::uint64_t alive_subs = 0;
  std::uint32_t last_frame = 0;
  bool saw = false;
  for (const auto& c : clients) {
    parse_errors += c->parse_errors();
    if (!c->alive()) continue;
    alive_subs += c->options().n_subs;
    total += c->total_packets();
    for (const auto& s : c->stats())
      if (s.packets > best) best = s.packets;
    if (c->saw_frame()) {
      if (!saw || transport::seq_less(last_frame, c->last_frame()))
        last_frame = c->last_frame();
      saw = true;
    }
  }
  const double mean = alive_subs > 0
                          ? static_cast<double>(total) /
                                static_cast<double>(alive_subs)
                          : 0.0;
  const double delivered =
      best > 0 ? mean / static_cast<double>(best) : 0.0;

  if (!json_only) {
    std::printf("loadgen: subs=%d sockets=%d alive=%llu killed=%zu\n", subs,
                sockets, static_cast<unsigned long long>(alive_subs),
                killed_subs);
    std::printf("loadgen: packets=%llu best/sub=%llu mean/sub=%.1f "
                "delivered=%.3f last_frame=%u parse_errors=%llu\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(best), mean, delivered,
                last_frame,
                static_cast<unsigned long long>(parse_errors));
    if (decode)
      std::printf("loadgen: decode units=%llu decodes=%llu\n",
                  static_cast<unsigned long long>(probe.unit_count),
                  static_cast<unsigned long long>(probe.decodes));
  }
  std::printf("LOADGEN_JSON {\"subs\":%d,\"alive_subs\":%llu,"
              "\"killed_subs\":%zu,\"packets\":%llu,\"best_per_sub\":%llu,"
              "\"mean_per_sub\":%.3f,\"delivered_fraction\":%.4f,"
              "\"last_frame\":%u,\"parse_errors\":%llu,"
              "\"decode_units\":%llu,\"decodes\":%llu}\n",
              subs, static_cast<unsigned long long>(alive_subs), killed_subs,
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(best), mean, delivered,
              last_frame, static_cast<unsigned long long>(parse_errors),
              static_cast<unsigned long long>(probe.unit_count),
              static_cast<unsigned long long>(probe.decodes));
  return total > 0 ? 0 : 1;
}
