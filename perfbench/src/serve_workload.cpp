// serve-paper: the w4kd serving daemon in-process on paper-shaped frames.
//
// One worker, 12 subscribers over 3 client sockets. Each frame is 3
// sublayers x 21 fountain symbols x 6000 B (k = 20 source symbols per
// sublayer, one repair symbol of headroom), run as a closed loop with one
// frame in flight: publish, wait until every subscriber holds the whole
// frame, then one probe subscriber fountain-decodes all three units. It
// exercises fec encode (publish) and decode plus fan-out and receive, and
// no scheduler, emulator or video work.
//
// The source re-sends each unit's block under fresh ESIs every frame, so
// frame 0 carries the systematic symbols (the reference bytes) and every
// later frame is decoded from repair symbols alone. With one symbol of
// headroom a unit fails to decode about once in 65,536 by design; that
// lowers decoded_frac deterministically for a given seed, and is not a
// correctness failure.
#include "harness.h"

#include "fec/fountain.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/client.h"
#include "serve/daemon.h"

#include <array>
#include <cstring>
#include <memory>
#include <thread>

namespace perfbench {
namespace {

using namespace w4k;

constexpr std::size_t kFrames = 400;
constexpr std::size_t kSubscribers = 12;
constexpr std::size_t kSockets = 3;
constexpr std::size_t kUnits = 3;
constexpr std::uint16_t kK = 20;
constexpr std::uint16_t kSymbols = 21;
constexpr std::size_t kSymbolBytes = 6000;
constexpr std::size_t kPerFrame = kSubscribers * kUnits * kSymbols;
constexpr std::uint64_t kProbeSub = 1;  ///< sub ids are 1..kSubscribers

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

class ServePaper : public Workload {
 public:
  explicit ServePaper(const RunConfig& cfg)
      : decoder_(kK, kSymbolBytes, kK * kSymbolBytes, 1) {
    dcfg_.status = false;
    dcfg_.workers = 1;
    dcfg_.pool_slots = 256;
    dcfg_.source.symbol_bytes = kSymbolBytes;
    dcfg_.source.seed = cfg.seed;
    dcfg_.source.layers = {{0, 0, kK, kSymbols},
                           {1, 0, kK, kSymbols},
                           {1, 1, kK, kSymbols}};
    dcfg_.worker.max_subscribers = 64;
    dcfg_.worker.heartbeat_timeout_s = 600.0;  // liveness is not measured
    for (auto& unit : probe_)
      for (auto& s : unit) s.data.reserve(kSymbolBytes);
  }

  std::size_t frames() const override { return kFrames; }

  void setup(SetupTimes& st) override {
    double t0 = now_s();
    daemon_ = std::make_unique<serve::Daemon>(dcfg_);
    daemon_->start();
    st.part("daemon", now_s() - t0);

    t0 = now_s();
    for (std::size_t i = 0; i < kSockets; ++i) {
      serve::Client::Options o;
      o.port = daemon_->port();
      o.n_subs = kSubscribers / kSockets;
      o.first_sub_id = 1 + i * o.n_subs;
      o.rcvbuf_bytes = 8 << 20;
      clients_[i] = std::make_unique<serve::Client>(o);
      clients_[i]->on_packet = [this](const serve::wire::DataPacket& p) {
        on_packet(p);
      };
    }
    // Subscribe is idempotent and control datagrams may be dropped, so
    // resend until the worker holds every subscription.
    double last_send = 0.0;
    while (daemon_->subscribers() < kSubscribers && now_s() - t0 < 5.0) {
      if (now_s() - last_send > 0.01) {
        for (auto& c : clients_) c->subscribe_all();
        last_send = now_s();
      }
      std::this_thread::yield();
    }
    st.part("subscribe", now_s() - t0);
    if (daemon_->subscribers() < kSubscribers) subscribe_failed_ = true;
    cur_.clear();
    mismatches_ = 0;
  }

  bool frame(std::size_t f, Tracer* t) override {
    frame_id_ = static_cast<std::uint32_t>(f);
    received_ = 0;
    probe_n_.fill(0);
    const double deadline = now_s() + kMissedFrameMs / 1e3;
    {
      Timed timed(t, "Daemon::publish_one", "serve.publish_ms", f);
      while (!daemon_->publish_one()) {
        if (now_s() > deadline) return missed();
        std::this_thread::yield();
      }
    }
    const std::uint64_t published_ns = obs::now_ns();
    // Busy-drain instead of sleeping in poll(): a sleeping receiver adds
    // its wake-up latency to every frame, the noisiest part of a frame on
    // a shared VM.
    std::uint64_t last_ns = published_ns, drain_ns = 0;
    while (received_ < kPerFrame) {
      if (now_s() > deadline) return missed();
      const std::uint64_t d0 = obs::now_ns();
      for (auto& c : clients_) c->drain();
      last_ns = obs::now_ns();
      drain_ns += last_ns - d0;
    }
    if (t) {
      t->record("delivery", "serve.fanout_ms", f, published_ns, last_ns);
      t->layers().record("serve.recv_ms", f,
                         static_cast<double>(drain_ns) / 1e6);
    }
    Timed timed(t, "FountainDecoder::decode_into", "fec.decode_ms", f);
    decode_probe(f);
    return true;
  }

  void end_replay(Report& r) override {
    if (subscribe_failed_) r.fail("serve-paper: subscriptions incomplete");
    if (mismatches_)
      r.fail("serve-paper: " + std::to_string(mismatches_) +
             " probe-decoded units differ from their systematic bytes");
    if (ref_.empty()) {
      ref_ = cur_;
      ref_blocks_ = blocks_;
    } else if (cur_ != ref_ || blocks_ != ref_blocks_) {
      r.fail("serve-paper: replay outcome differs from the first replay");
    }
  }

  void teardown() override {
    daemon_->stop();
    for (auto& c : clients_) c.reset();
    daemon_.reset();
  }

  void add_outcome_metrics(const ReplayTimes& t, Report& r) override {
    std::uint64_t received = 0, decoded = 0;
    for (std::size_t i = 0; i < ref_.size(); i += 1 + kUnits) {
      received += ref_[i];
      for (std::size_t u = 0; u < kUnits; ++u) decoded += ref_[i + 1 + u];
    }
    const double frame_s = sum(t.minima()) / 1e3;
    const double expected = static_cast<double>(kFrames * kPerFrame);
    // No video crosses the daemon: every decoded unit is bit-exact (the
    // gate checks it), so there is no picture quality to lose.
    r.add("ssim_mean", 1.0, "ssim");
    r.add("decoded_frac",
          static_cast<double>(decoded) /
              static_cast<double>(kFrames * kUnits),
          "ratio");
    r.add("goodput_gbps",
          frame_s > 0.0 ? static_cast<double>(received) * kSymbolBytes *
                              8.0 / frame_s / 1e9
                        : 0.0,
          "Gbit/s");
    r.add("delivered_frac", static_cast<double>(received) / expected,
          "ratio");
  }

  void add_layer_metrics(const ReplayTimes& traced, const Tracer& t,
                         Report& r) override {
    const LayerTimes& L = t.layers();
    r.add("serve.publish_ms_p50", L.percentile("serve.publish_ms", 0.5),
          "ms");
    r.add("serve.fanout_ms_p50", L.percentile("serve.fanout_ms", 0.5), "ms");
    r.add("serve.recv_ms_p50", L.percentile("serve.recv_ms", 0.5), "ms");
    r.add("fec.decode_ms_p50", L.percentile("fec.decode_ms", 0.5), "ms");
    const std::uint64_t received = counter("fec.symbols_received");
    r.add("fec.innovative_frac",
          received ? static_cast<double>(counter("fec.symbols_innovative")) /
                         static_cast<double>(received)
                   : 0.0,
          "ratio");
    const std::uint64_t batches = counter("serve.w0.batches");
    r.add("serve.packets_per_batch",
          batches ? static_cast<double>(counter("serve.w0.packets_sent")) /
                        static_cast<double>(batches)
                  : 0.0,
          "count");
    r.add("serve.drops",
          static_cast<double>(counter("serve.pub.ring_stalls") +
                              counter("serve.pub.pool_exhausted") +
                              counter("serve.pub.worker_drops") +
                              counter("serve.w0.send_errors")),
          "count");
    r.add("frame.other_ms",
          traced.mean_all() - L.mean_all("serve.publish_ms") -
              L.mean_all("serve.fanout_ms") - L.mean_all("fec.decode_ms"),
          "ms");
  }

  void echo(Report& r) const {
    r.echo("serve_workers", std::to_string(dcfg_.workers));
    r.echo("subscribers", std::to_string(kSubscribers));
    r.echo("client_sockets", std::to_string(kSockets));
    r.echo("frame_shape", std::to_string(kUnits) + "x" +
                              std::to_string(kSymbols) + "x" +
                              std::to_string(kSymbolBytes) + "B");
  }

 private:
  bool missed() {
    cur_.push_back(received_);
    for (std::size_t u = 0; u < kUnits; ++u) cur_.push_back(0);
    return false;
  }

  void on_packet(const serve::wire::DataPacket& p) {
    if (p.header.frame_id != frame_id_) return;  // late packet of a miss
    ++received_;
    if (p.sub_id != kProbeSub) return;
    const std::size_t unit =
        p.header.layer == 0 ? 0 : 1 + static_cast<std::size_t>(p.header.sublayer);
    if (unit >= kUnits || probe_n_[unit] >= kSymbols) return;
    fec::Symbol& s = probe_[unit][probe_n_[unit]++];
    s.esi = p.header.esi;
    s.data.assign(p.payload, p.payload + p.payload_size);
    seeds_[unit] = p.header.block_seed;
  }

  /// Decodes the probe's three units. Frame 0 carries the systematic
  /// symbols, whose payloads are the unit's source block: they become the
  /// reference every later decode must reproduce byte for byte.
  void decode_probe(std::size_t f) {
    cur_.push_back(received_);
    for (std::size_t u = 0; u < kUnits; ++u) {
      if (f == 0) {
        blocks_[u].assign(kK * kSymbolBytes, 0);
        for (std::size_t i = 0; i < probe_n_[u]; ++i) {
          const fec::Symbol& s = probe_[u][i];
          if (s.esi < kK)
            std::memcpy(blocks_[u].data() + s.esi * kSymbolBytes,
                        s.data.data(), s.data.size());
        }
      }
      decoder_.reset(kK, kSymbolBytes, kK * kSymbolBytes, seeds_[u]);
      for (std::size_t i = 0; i < probe_n_[u]; ++i)
        decoder_.add_symbol(probe_[u][i]);
      const bool ok = decoder_.decode_into(out_, ws_);
      if (ok && out_ != blocks_[u]) ++mismatches_;
      cur_.push_back(ok ? 1 : 0);
    }
  }

  serve::DaemonConfig dcfg_;
  std::unique_ptr<serve::Daemon> daemon_;
  std::array<std::unique_ptr<serve::Client>, kSockets> clients_;
  bool subscribe_failed_ = false;

  std::uint32_t frame_id_ = 0;
  std::uint64_t received_ = 0;
  std::array<std::array<fec::Symbol, kSymbols>, kUnits> probe_;
  std::array<std::size_t, kUnits> probe_n_{};
  std::array<std::uint64_t, kUnits> seeds_{};
  std::array<std::vector<std::uint8_t>, kUnits> blocks_, ref_blocks_;
  fec::FountainDecoder decoder_;
  fec::DecodeWorkspace ws_;
  std::vector<std::uint8_t> out_;
  std::uint64_t mismatches_ = 0;

  /// Per frame: packets received, then one decoded flag per unit.
  std::vector<std::uint64_t> cur_, ref_;
};

}  // namespace

void run_serve_paper(const RunConfig& cfg, Report& r) {
  ServePaper w(cfg);
  w.echo(r);
  run_workload(w, cfg, r);
}

}  // namespace perfbench
