#include "serve/client.h"

#include "transport/packet.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace w4k::serve {

Client::Client(const Options& opts)
    : opts_(opts), stats_(opts.n_subs), rxbuf_(64 * 1024) {
  fd_ = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw std::runtime_error("Client: socket failed");
  if (opts_.rcvbuf_bytes > 0) {
    const int val = static_cast<int>(opts_.rcvbuf_bytes);
    setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &val, sizeof val);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd_);
    fd_ = -1;
    throw std::runtime_error("Client: bad host " + opts_.host);
  }
  // connect() fixes the 4-tuple: the kernel's SO_REUSEPORT hash pins this
  // socket (and all its virtual subscribers) to one daemon worker.
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd_);
    fd_ = -1;
    throw std::runtime_error("Client: connect failed");
  }
  const int flags = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  // Best effort: a kernel without UDP_GRO delivers every datagram alone.
  const int on = 1;
  setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof on);
}

Client::~Client() { kill(); }

void Client::send_ctrl(wire::CtrlType type, std::uint64_t sub_id) {
  if (fd_ < 0) return;
  std::uint8_t buf[wire::kCtrlBytes];
  wire::CtrlMsg m;
  m.type = type;
  m.sub_id = sub_id;
  wire::serialize_ctrl(m, buf);
  [[maybe_unused]] ssize_t r = send(fd_, buf, sizeof buf, 0);
}

void Client::subscribe_all() {
  for (std::size_t i = 0; i < opts_.n_subs; ++i)
    send_ctrl(wire::CtrlType::kSubscribe, opts_.first_sub_id + i);
}

void Client::heartbeat_all() {
  for (std::size_t i = 0; i < opts_.n_subs; ++i)
    send_ctrl(wire::CtrlType::kHeartbeat, opts_.first_sub_id + i);
}

void Client::unsubscribe_all() {
  for (std::size_t i = 0; i < opts_.n_subs; ++i)
    send_ctrl(wire::CtrlType::kUnsubscribe, opts_.first_sub_id + i);
}

std::size_t Client::drain() {
  if (fd_ < 0) return 0;
  std::size_t n = 0;
  while (true) {
    iovec iov{rxbuf_.data(), rxbuf_.size()};
    msghdr h{};
    h.msg_iov = &iov;
    h.msg_iovlen = 1;
    h.msg_control = ctrl_;
    h.msg_controllen = sizeof ctrl_;
    const ssize_t r = recvmsg(fd_, &h, MSG_DONTWAIT);
    if (r < 0) break;  // EAGAIN: drained
    const auto size = static_cast<std::size_t>(r);
    std::size_t gso_size = size;
    for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c))
      if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
        int v = 0;
        std::memcpy(&v, CMSG_DATA(c), sizeof v);
        gso_size = v > 0 ? static_cast<std::size_t>(v) : 0;
      }
    parse_errors_ += wire::split_segments(
        rxbuf_.data(), size, gso_size,
        [&](const wire::DataPacket& pkt, std::size_t bytes) {
          if (account(pkt, bytes)) ++n;
        });
  }
  return n;
}

bool Client::account(const wire::DataPacket& pkt, std::size_t bytes) {
  const std::uint64_t rel = pkt.sub_id - opts_.first_sub_id;
  if (rel >= stats_.size()) {
    ++parse_errors_;  // someone else's subscriber id
    return false;
  }
  stats_[rel].packets += 1;
  stats_[rel].bytes += bytes;
  ++total_packets_;
  if (!saw_frame_ || transport::seq_less(last_frame_, pkt.header.frame_id))
    last_frame_ = pkt.header.frame_id;
  saw_frame_ = true;
  if (on_packet) on_packet(pkt);
  return true;
}

void Client::kill() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

}  // namespace w4k::serve
