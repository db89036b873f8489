// Daemon-level tests: synchronous worker lifecycle (subscribe /
// heartbeat / unsubscribe / expiry driven through run_once), the
// kill-half system test over real threads and loopback
// UDP, and the /status HTTP endpoint parsed with the repo's own JSON
// parser.
#include "obs/jsonlite.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "verify/invariants.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace w4k::serve {
namespace {

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

DaemonConfig quiet_config() {
  DaemonConfig cfg;
  cfg.status = false;
  cfg.workers = 1;
  cfg.pool_slots = 64;
  cfg.source.symbol_bytes = 256;
  cfg.source.layers = {{0, 0, 4, 2}, {1, 0, 4, 1}};  // 3 symbols/frame
  return cfg;
}

// The whole subscriber lifecycle, single-stepped: no daemon threads, the
// test is the event loop. Deterministic by construction.
TEST(ServeWorker, LifecycleSingleStepped) {
  obs::set_enabled(true);
  auto cfg = quiet_config();
  // Generous relative to the test's ~0.1 s sleeps plus run_once's own
  // (up to 50 ms) epoll_wait block, so heartbeats always land in time.
  cfg.worker.heartbeat_timeout_s = 0.3;
  Daemon d(cfg);
  Worker& w = d.worker(0);

  Client::Options o;
  o.port = d.port();
  o.n_subs = 5;
  o.first_sub_id = 100;
  Client c(o);

  c.subscribe_all();
  w.run_once(50);
  EXPECT_EQ(w.subscribers(), 5u);

  // Re-subscribing is an idempotent refresh, not a duplicate entry.
  c.subscribe_all();
  w.run_once(50);
  EXPECT_EQ(w.subscribers(), 5u);

  const std::uint64_t sent_before = w.packets_sent();
  ASSERT_TRUE(d.publish_one());
  w.run_once(50);
  EXPECT_EQ(w.packets_sent() - sent_before, 5u * 3u);
  EXPECT_EQ(w.backlog(), 0u);  // frame finished, references released

  sleep_s(0.1);
  c.heartbeat_all();  // keeps all five alive across the timeout boundary
  w.run_once(50);
  sleep_s(0.1);
  w.run_once(50);
  EXPECT_EQ(w.subscribers(), 5u);

  // Two unsubscribe; the rest go silent and expire.
  Client::Options o2 = o;
  o2.n_subs = 2;
  // Reuse the same ids through a fresh socket: unsubscribe is by id.
  Client c2(o2);
  c2.unsubscribe_all();
  w.run_once(50);
  EXPECT_EQ(w.subscribers(), 3u);

  sleep_s(0.4);  // >> heartbeat_timeout_s with no heartbeats
  w.run_once(50);
  EXPECT_EQ(w.subscribers(), 0u);

  const std::size_t got = c.drain();
  EXPECT_EQ(got, 15u);
  EXPECT_EQ(c.parse_errors(), 0u);
}

// With nobody subscribed, published frames must still cycle the pool
// (references released promptly) instead of leaking slots.
TEST(ServeWorker, NoSubscribersRecyclesSlots) {
  auto cfg = quiet_config();
  Daemon d(cfg);
  const std::size_t free0 = d.pool().free_slots();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(d.publish_one());
    d.worker(0).run_once(10);
  }
  EXPECT_EQ(d.pool().free_slots(), free0);
}

// System test: start the daemon on loopback, 64 clients, kill half
// mid-stream. Remaining clients keep a healthy delivered fraction, the
// daemon's accounting holds (received <= sent; leaky-bucket invariants
// checked in-line by verify::check), and the dead half is reaped by
// heartbeat expiry.
TEST(ServeSystem, KillHalfMidStream) {
  obs::set_enabled(true);
  verify::reset_violations();
  const std::uint64_t v0 = verify::violation_count();

  DaemonConfig cfg;
  cfg.status = false;
  cfg.workers = 2;
  cfg.pool_slots = 128;
  cfg.source.symbol_bytes = 512;
  cfg.source.layers = {{0, 0, 8, 2}, {1, 0, 4, 1}};
  cfg.worker.heartbeat_timeout_s = 0.4;
  cfg.worker.pace_mbps = 200.0;  // pacing on => bucket invariants exercised
  cfg.worker.bucket_bytes = 64 * 1024;
  Daemon d(cfg);
  d.start();
  // The test sets the frame cadence itself, as w4kd does: 120 fps on a
  // publisher thread of its own until the end of the stream.
  std::jthread publisher([&d](std::stop_token st) {
    while (!st.stop_requested()) {
      d.publish_one();
      sleep_s(1.0 / 120.0);
    }
  });

  // 64 subscribers over 8 sockets (8 each); the REUSEPORT hash spreads
  // the sockets over both workers.
  constexpr int kSockets = 8;
  constexpr std::size_t kSubsPer = 8;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kSockets; ++i) {
    Client::Options o;
    o.port = d.port();
    o.n_subs = kSubsPer;
    o.first_sub_id = 1 + static_cast<std::uint64_t>(i) * kSubsPer;
    clients.push_back(std::make_unique<Client>(o));
    clients.back()->subscribe_all();
  }

  auto pump = [&](double seconds) {
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    while (std::chrono::steady_clock::now() < until) {
      pollfd fds[kSockets];
      nfds_t nf = 0;
      for (auto& c : clients)
        if (c->alive()) fds[nf++] = pollfd{c->fd(), POLLIN, 0};
      poll(fds, nf, 20);
      for (auto& c : clients)
        if (c->alive()) {
          c->drain();
          c->heartbeat_all();
        }
    }
  };

  pump(0.5);
  for (int i = 0; i < kSockets / 2; ++i) clients[i]->kill();  // crash, no bye

  // Survivors keep streaming; the killed half must expire. Poll rather
  // than sleep a fixed time: expiry needs a couple of sweep periods.
  double waited = 0.0;
  while (d.subscribers() > kSockets / 2 * kSubsPer && waited < 5.0) {
    pump(0.1);
    waited += 0.1;
  }
  EXPECT_EQ(d.subscribers(), kSockets / 2 * kSubsPer);

  pump(0.3);
  publisher.request_stop();
  publisher.join();
  d.stop();
  for (auto& c : clients)
    if (c->alive()) c->drain();

  // Conservation: what the clients received can never exceed what the
  // workers report having sent (drops are allowed, invention is not).
  std::uint64_t received = 0;
  for (const auto& c : clients)
    if (c->alive()) received += c->total_packets();
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < d.n_workers(); ++i)
    sent += d.worker(i).packets_sent();
  EXPECT_GT(sent, 0u);
  EXPECT_LE(received, sent);

  // Every surviving subscriber saw traffic, and the spread between the
  // best- and mean-served survivor stays sane (loopback, no real loss).
  std::uint64_t best = 0, total = 0, n_subs = 0;
  for (const auto& c : clients) {
    if (!c->alive()) continue;
    EXPECT_EQ(c->parse_errors(), 0u);
    for (const auto& s : c->stats()) {
      EXPECT_GT(s.packets, 0u);
      best = std::max(best, s.packets);
      total += s.packets;
      ++n_subs;
    }
  }
  ASSERT_EQ(n_subs, kSockets / 2 * kSubsPer);
  const double mean =
      static_cast<double>(total) / static_cast<double>(n_subs);
  EXPECT_GE(mean / static_cast<double>(best), 0.5);

  // No invariant (bucket level, pool refcount, progress bound, ...)
  // tripped anywhere in the run.
  EXPECT_EQ(verify::violation_count(), v0);
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &a.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

TEST(ServeStatus, EndpointServesParsableJson) {
  obs::set_enabled(true);
  auto cfg = quiet_config();
  cfg.status = true;
  Daemon d(cfg);
  d.start();
  ASSERT_NE(d.status_port(), 0);

  Client::Options o;
  o.port = d.port();
  o.n_subs = 3;
  o.first_sub_id = 900;
  Client c(o);
  c.subscribe_all();
  sleep_s(0.05);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(d.publish_one());
  sleep_s(0.05);

  const std::string health = http_get(d.status_port(), "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);

  const std::string resp = http_get(d.status_port(), "/status");
  ASSERT_NE(resp.find(" 200 OK"), std::string::npos);
  const auto split = resp.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  const std::string body = resp.substr(split + 4);

  std::string err;
  const auto doc = obs::json::parse(body, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());
  const auto* daemon = doc->find("daemon");
  ASSERT_NE(daemon, nullptr);
  EXPECT_EQ(daemon->str, "w4kd");
  const auto* workers = doc->find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->number, 1.0);
  const auto* frames = doc->find("frames_published");
  ASSERT_NE(frames, nullptr);
  EXPECT_GE(frames->number, 4.0);  // global counter: >= this daemon's 4
  const auto* subs = doc->find("subscribers");
  ASSERT_NE(subs, nullptr);
  EXPECT_EQ(subs->number, 3.0);
  const auto* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());

  const std::string missing = http_get(d.status_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  d.stop();
}

}  // namespace
}  // namespace w4k::serve
