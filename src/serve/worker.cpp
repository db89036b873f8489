#include "serve/worker.h"

#include "serve/wire.h"
#include "verify/invariants.h"

#include <netinet/udp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>

namespace w4k::serve {
namespace {

/// Frames queued in a worker's inbox before publish() fails.
constexpr std::size_t kMaxBacklog = 8;
static_assert(kMaxBacklog < FrameRing::kCap, "backlog must fit the ring");

double mono_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string metric(int index, const char* name) {
  return "serve.w" + std::to_string(index) + "." + name;
}

}  // namespace

// --- FrameRing -------------------------------------------------------------

bool FrameRing::push(FrameDesc* f) {
  const std::uint32_t t = tail_.load(std::memory_order_relaxed);
  const std::uint32_t h = head_.load(std::memory_order_acquire);
  if (t - h >= kCap) return false;
  buf_[t % kCap] = f;
  tail_.store(t + 1, std::memory_order_release);
  return true;
}

FrameDesc* FrameRing::front() const {
  const std::uint32_t h = head_.load(std::memory_order_relaxed);
  if (h == tail_.load(std::memory_order_acquire)) return nullptr;
  return buf_[h % kCap];
}

void FrameRing::pop() {
  const std::uint32_t h = head_.load(std::memory_order_relaxed);
  head_.store(h + 1, std::memory_order_release);
}

std::size_t FrameRing::size() const {
  return tail_.load(std::memory_order_acquire) -
         head_.load(std::memory_order_acquire);
}

// --- Worker ----------------------------------------------------------------

Worker::Worker(const WorkerConfig& cfg, BufferPool& pool, int data_fd)
    : cfg_(cfg),
      pool_(pool),
      fd_data_(data_fd),
      pacing_(cfg.pace_mbps > 0.0),
      packets_sent_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "packets_sent"))),
      bytes_sent_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "bytes_sent"))),
      batches_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "batches"))),
      gso_sends_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "gso_sends"))),
      send_errors_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "send_errors"))),
      ctrl_rejects_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "ctrl_rejects"))),
      table_full_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "table_full"))),
      expired_(obs::MetricsRegistry::global().counter(
          metric(cfg.index, "expired"))),
      g_subscribers_(obs::MetricsRegistry::global().gauge(
          metric(cfg.index, "subscribers"))),
      g_backlog_(obs::MetricsRegistry::global().gauge(
          metric(cfg.index, "backlog_frames"))) {
  if (cfg_.max_subscribers == 0 || cfg_.batch_packets == 0)
    throw std::invalid_argument("Worker: zero max_subscribers or batch");
  fd_event_ = eventfd(0, EFD_NONBLOCK);
  fd_epoll_ = epoll_create1(0);
  if (fd_event_ < 0 || fd_epoll_ < 0)
    throw std::runtime_error("Worker: eventfd/epoll_create1 failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd_data_;
  if (epoll_ctl(fd_epoll_, EPOLL_CTL_ADD, fd_data_, &ev) != 0)
    throw std::runtime_error("Worker: epoll_ctl(data) failed");
  ev.data.fd = fd_event_;
  if (epoll_ctl(fd_epoll_, EPOLL_CTL_ADD, fd_event_, &ev) != 0)
    throw std::runtime_error("Worker: epoll_ctl(eventfd) failed");

  subs_.resize(cfg_.max_subscribers);
  free_subs_.reserve(cfg_.max_subscribers);
  for (std::size_t i = cfg_.max_subscribers; i > 0; --i)
    free_subs_.push_back(static_cast<std::uint32_t>(i - 1));
  active_.reserve(cfg_.max_subscribers);
  by_id_.reserve(cfg_.max_subscribers);

  msgs_.resize(cfg_.batch_packets);
  iovs_.resize(2 * cfg_.batch_packets);
  prefixes_.resize(cfg_.batch_packets);
  pkt_sub_.resize(cfg_.batch_packets);
  cmsgs_.resize(cfg_.batch_packets);
  for (GsoCmsg& c : cmsgs_) {
    cmsghdr hdr{};
    hdr.cmsg_level = SOL_UDP;
    hdr.cmsg_type = UDP_SEGMENT;
    hdr.cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
    std::memcpy(c.buf, &hdr, sizeof hdr);
  }
  // A kernel without UDP_SEGMENT rejects the option itself; gso_size 0
  // leaves plain sends unsegmented.
  const int no_default_gso = 0;
  if (setsockopt(fd_data_, SOL_UDP, UDP_SEGMENT, &no_default_gso,
                 sizeof no_default_gso) != 0)
    seg_cap_ = 1;

  last_tick_ = last_sweep_ = mono_now();
}

Worker::~Worker() {
  stop();
  if (fd_epoll_ >= 0) close(fd_epoll_);
  if (fd_event_ >= 0) close(fd_event_);
  if (fd_data_ >= 0) close(fd_data_);
}

void Worker::start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

void Worker::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  if (fd_event_ >= 0)
    [[maybe_unused]] ssize_t r = write(fd_event_, &one, sizeof one);
  if (thread_.joinable()) thread_.join();
}

bool Worker::publish(FrameDesc* f) {
  if (inbox_.size() >= kMaxBacklog) return false;
  if (!inbox_.push(f)) return false;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = write(fd_event_, &one, sizeof one);
  return true;
}

void Worker::run() {
  while (!stop_.load(std::memory_order_relaxed)) run_once(timeout_hint_ms());
}

int Worker::timeout_hint_ms() const {
  if (inbox_.front() == nullptr) return 100;  // idle: heartbeat cadence
  if (next_wait_s_ <= 0.0) return 0;
  const double ms = next_wait_s_ * 1e3;
  return ms >= 100.0 ? 100 : static_cast<int>(ms) + 1;
}

void Worker::run_once(int timeout_ms) {
  epoll_event evs[8];
  const int n = epoll_wait(fd_epoll_, evs, 8, timeout_ms);
  const double now = mono_now();
  bool ctrl_ready = false;
  for (int i = 0; i < n; ++i) {
    if (evs[i].data.fd == fd_event_) {
      std::uint64_t v;
      [[maybe_unused]] ssize_t r = read(fd_event_, &v, sizeof v);
    } else {
      ctrl_ready = true;
    }
  }
  if (ctrl_ready) on_ctrl(now);
  if (pacing_) {
    const double dt = now - last_tick_;
    if (dt > 0.0)
      for (const std::uint32_t idx : active_) subs_[idx].bucket.advance(dt);
  }
  last_tick_ = now;
  pump();
  // Expiry sweep cadence: half the heartbeat timeout, capped at 1 s, so
  // short test timeouts expire promptly without per-iteration sweeps.
  const double sweep_every =
      cfg_.heartbeat_timeout_s < 2.0 ? cfg_.heartbeat_timeout_s * 0.5 : 1.0;
  if (now - last_sweep_ >= sweep_every) {
    expire(now);
    last_sweep_ = now;
  }
  g_subscribers_.set(static_cast<double>(active_.size()));
  g_backlog_.set(static_cast<double>(inbox_.size()));
}

void Worker::on_ctrl(double now) {
  std::uint8_t buf[64];
  while (true) {
    sockaddr_in from{};
    socklen_t flen = sizeof(from);
    const ssize_t r =
        recvfrom(fd_data_, buf, sizeof buf, MSG_DONTWAIT,
                 reinterpret_cast<sockaddr*>(&from), &flen);
    if (r < 0) break;  // EAGAIN: drained
    const auto m = wire::parse_ctrl(buf, static_cast<std::size_t>(r));
    if (!m) {
      ctrl_rejects_.add();
      continue;
    }
    switch (m->type) {
      case wire::CtrlType::kSubscribe:
        subscribe(m->sub_id, from, now);
        break;
      case wire::CtrlType::kHeartbeat: {
        const auto it = by_id_.find(m->sub_id);
        if (it == by_id_.end()) {
          ctrl_rejects_.add();
        } else {
          subs_[it->second].last_heard = now;
          subs_[it->second].addr = from;
        }
        break;
      }
      case wire::CtrlType::kUnsubscribe: {
        const auto it = by_id_.find(m->sub_id);
        if (it != by_id_.end()) remove(it->second);
        break;
      }
    }
  }
}

void Worker::subscribe(std::uint64_t id, const sockaddr_in& from, double now) {
  const auto it = by_id_.find(id);
  if (it != by_id_.end()) {  // idempotent re-subscribe: refresh liveness
    subs_[it->second].addr = from;
    subs_[it->second].last_heard = now;
    return;
  }
  if (free_subs_.empty()) {
    table_full_.add();
    return;
  }
  const std::uint32_t slot = free_subs_.back();
  free_subs_.pop_back();
  Sub& s = subs_[slot];
  s.id = id;
  s.addr = from;
  s.last_heard = now;
  s.progress = 0;
  s.active = true;
  if (pacing_)
    s.bucket = transport::LeakyBucket(Mbps{cfg_.pace_mbps}, cfg_.bucket_bytes);
  s.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(slot);
  by_id_.emplace(id, slot);
  n_active_.store(active_.size(), std::memory_order_relaxed);
}

void Worker::remove(std::uint32_t slot) {
  Sub& s = subs_[slot];
  verify::check(s.active, "serve.remove-inactive", [&] {
    return "remove of inactive sub slot " + std::to_string(slot);
  });
  const std::uint32_t pos = s.active_pos;
  const std::uint32_t last = active_.back();
  active_[pos] = last;
  subs_[last].active_pos = pos;
  active_.pop_back();
  by_id_.erase(s.id);
  s.active = false;
  free_subs_.push_back(slot);
  n_active_.store(active_.size(), std::memory_order_relaxed);
}

void Worker::pump() {
  next_wait_s_ = -1.0;
  while (FrameDesc* f = inbox_.front()) {
    bool all_done = true;
    for (const std::uint32_t idx : active_) {
      Sub& s = subs_[idx];
      verify::check(s.progress <= f->n_symbols, "serve.progress-bound", [&] {
        return "sub progress " + std::to_string(s.progress) + " > " +
               std::to_string(f->n_symbols) + " symbols";
      });
      while (s.progress < f->n_symbols) {
        const std::size_t record = f->bytes[s.progress];
        const std::size_t wire_bytes = record + wire::kPrefixBytes;
        if (pacing_ && !s.bucket.can_send(wire_bytes)) {
          const Seconds w = s.bucket.time_until(wire_bytes);
          if (next_wait_s_ < 0.0 || w < next_wait_s_) next_wait_s_ = w;
          break;
        }
        enqueue_packet(idx, f->slots[s.progress], record);
        if (pacing_) s.bucket.on_send(wire_bytes);
        ++s.progress;
      }
      if (s.progress < f->n_symbols) all_done = false;
    }
    flush_batch();
    if (!all_done) break;
    finish_frame(f);
  }
}

void Worker::enqueue_packet(std::uint32_t sub, std::uint32_t pool_slot,
                            std::size_t record) {
  wire::serialize_prefix(subs_[sub].id, prefixes_[batch_n_]);
  iovec* iov = &iovs_[2 * batch_n_];
  iov[0].iov_base = prefixes_[batch_n_].data();
  iov[0].iov_len = wire::kPrefixBytes;
  iov[1].iov_base = pool_.slot(pool_slot).data();
  iov[1].iov_len = record;
  pkt_sub_[batch_n_] = sub;
  if (++batch_n_ == cfg_.batch_packets) flush_batch();
}

// Cuts the batch's packets from `first` on into messages: one per run of a
// subscriber's consecutive packets of equal size, at most seg_cap_
// segments and kMaxUdpPayload bytes. pump() enqueues a subscriber's
// packets back to back until its frame ends or pacing defers it, so a run
// never spans a deferral. Returns the message count.
std::size_t Worker::build_messages(std::size_t first) {
  std::size_t m = 0;
  for (std::size_t p = first; p < batch_n_; ++m) {
    const std::size_t record = iovs_[2 * p + 1].iov_len;
    const std::size_t seg = wire::kPrefixBytes + record;
    const std::size_t cap =
        std::min(seg_cap_, std::max<std::size_t>(1, kMaxUdpPayload / seg));
    std::size_t n = 1;
    while (n < cap && p + n < batch_n_ && pkt_sub_[p + n] == pkt_sub_[p] &&
           iovs_[2 * (p + n) + 1].iov_len == record)
      ++n;
    msghdr& h = msgs_[m].msg_hdr;
    h.msg_name = &subs_[pkt_sub_[p]].addr;
    h.msg_namelen = sizeof(sockaddr_in);
    h.msg_iov = &iovs_[2 * p];
    h.msg_iovlen = 2 * n;
    h.msg_flags = 0;
    if (n > 1) {
      const auto gso_size = static_cast<std::uint16_t>(seg);
      std::memcpy(CMSG_DATA(reinterpret_cast<cmsghdr*>(cmsgs_[m].buf)),
                  &gso_size, sizeof gso_size);
      h.msg_control = cmsgs_[m].buf;
      h.msg_controllen = sizeof cmsgs_[m].buf;
    } else {
      h.msg_control = nullptr;
      h.msg_controllen = 0;
    }
    p += n;
  }
  return m;
}

void Worker::flush_batch() {
  if (batch_n_ == 0) return;
  std::size_t next = 0;  // first packet neither sent nor dropped
  std::size_t sent = 0, dropped = 0, bytes = 0;
  while (next < batch_n_) {
    const std::size_t n_msgs = build_messages(next);
    std::size_t m = 0;
    while (m < n_msgs) {
      const int r = sendmmsg(fd_data_, msgs_.data() + m,
                             static_cast<unsigned>(n_msgs - m), MSG_DONTWAIT);
      if (r > 0) {
        for (const std::size_t end = m + static_cast<std::size_t>(r); m < end;
             ++m) {
          const std::size_t segs = msgs_[m].msg_hdr.msg_iovlen / 2;
          if (segs > 1 && obs::enabled()) gso_sends_.add();
          sent += segs;
          next += segs;
          bytes += msgs_[m].msg_len;
        }
        continue;
      }
      if (errno == EINTR) continue;
      const bool gso_refused =
          msgs_[m].msg_hdr.msg_iovlen > 2 &&
          (errno == EINVAL || errno == EIO || errno == EOPNOTSUPP ||
           errno == EMSGSIZE);
      if (gso_refused) {
        // E.g. a NIC whose MTU is below the segment size: segment nothing
        // on this socket again, and re-cut the batch from this message.
        seg_cap_ = 1;
        break;
      }
      // EAGAIN / ENOBUFS: kernel send buffer momentarily full. The rest of
      // the batch is dropped (UDP loss semantics) and counted per packet;
      // the symbols remain recoverable for receivers via later fountain
      // symbols.
      dropped += batch_n_ - next;
      next = batch_n_;
      break;
    }
  }
  verify::check(sent + dropped == batch_n_, "serve.flush-conservation", [&] {
    return "flush offered " + std::to_string(batch_n_) + " packets, sent " +
           std::to_string(sent) + " + dropped " + std::to_string(dropped);
  });
  packets_sent_.add(sent);
  bytes_sent_.add(bytes);
  if (dropped > 0) send_errors_.add(dropped);
  batches_.add();
  batch_n_ = 0;
}

void Worker::finish_frame(FrameDesc* f) {
  for (std::uint32_t i = 0; i < f->n_symbols; ++i) pool_.release(f->slots[i]);
  for (const std::uint32_t idx : active_) subs_[idx].progress = 0;
  inbox_.pop();
  f->workers_pending.fetch_sub(1, std::memory_order_acq_rel);
}

void Worker::expire(double now) {
  for (std::size_t i = active_.size(); i > 0; --i) {
    const std::uint32_t idx = active_[i - 1];
    if (now - subs_[idx].last_heard > cfg_.heartbeat_timeout_s) {
      remove(idx);
      expired_.add();
    }
  }
}

}  // namespace w4k::serve
