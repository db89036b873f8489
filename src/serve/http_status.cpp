#include "serve/http_status.h"

#include "obs/export.h"
#include "obs/metrics.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <stdexcept>

namespace w4k::serve {
namespace {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t r = send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
    if (r <= 0) return;  // peer gone; diagnostics endpoint, just drop
    off += static_cast<std::size_t>(r);
  }
}

std::string http_response(int code, const char* reason,
                          const std::string& body) {
  std::string r = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                  "\r\nContent-Type: application/json\r\nContent-Length: " +
                  std::to_string(body.size()) +
                  "\r\nConnection: close\r\n\r\n";
  r += body;
  return r;
}

}  // namespace

std::optional<RequestLine> parse_request_line(std::string_view request) {
  request = request.substr(0, request.find('\0'));
  const std::size_t sp1 = request.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = request.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return std::nullopt;
  return RequestLine{request.substr(0, sp1),
                     request.substr(sp1 + 1, sp2 - sp1 - 1)};
}

StatusServer::StatusServer(std::uint16_t port, ExtraFn extra)
    : extra_(std::move(extra)) {
  fd_listen_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_listen_ < 0) throw std::runtime_error("StatusServer: socket failed");
  const int one = 1;
  setsockopt(fd_listen_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd_listen_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(fd_listen_, 16) != 0) {
    close(fd_listen_);
    throw std::runtime_error("StatusServer: bind/listen failed");
  }
  socklen_t alen = sizeof(addr);
  getsockname(fd_listen_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  if (pipe(fd_wake_) != 0)
    throw std::runtime_error("StatusServer: pipe failed");
}

StatusServer::~StatusServer() {
  stop();
  if (fd_listen_ >= 0) close(fd_listen_);
  for (int fd : fd_wake_)
    if (fd >= 0) close(fd);
}

void StatusServer::start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

void StatusServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (fd_wake_[1] >= 0)
    [[maybe_unused]] ssize_t r = write(fd_wake_[1], "x", 1);
  if (thread_.joinable()) thread_.join();
}

void StatusServer::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{fd_listen_, POLLIN, 0}, {fd_wake_[0], POLLIN, 0}};
    if (poll(fds, 2, 1000) <= 0) continue;
    if (fds[1].revents != 0) break;  // woken for shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = accept(fd_listen_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_one(fd);
    close(fd);
  }
}

void StatusServer::serve_one(int fd) {
  // Bound the read so a stalled client cannot wedge the status thread.
  timeval tv{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[4096];
  std::size_t n = 0;
  while (n < sizeof(buf) - 1) {
    const ssize_t r = recv(fd, buf + n, sizeof(buf) - 1 - n, 0);
    if (r <= 0) break;
    n += static_cast<std::size_t>(r);
    buf[n] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr) break;
  }
  if (n == 0) return;
  const std::optional<RequestLine> line = parse_request_line({buf, n});
  if (!line) return;
  if (line->method != "GET") {
    send_all(fd, http_response(405, "Method Not Allowed",
                               "{\"error\":\"method\"}"));
    return;
  }
  if (line->path == "/status" || line->path == "/") {
    send_all(fd, http_response(200, "OK", build_status()));
  } else if (line->path == "/healthz") {
    send_all(fd, http_response(200, "OK", "{\"ok\":true}"));
  } else {
    send_all(fd, http_response(404, "Not Found", "{\"error\":\"path\"}"));
  }
}

std::string StatusServer::build_status() const {
  std::string body = "{\"daemon\":\"w4kd\",";
  if (extra_) extra_(body);
  std::ostringstream snapshot;
  obs::write_json_snapshot(snapshot, obs::MetricsRegistry::global());
  body += "\"metrics\":";
  body += snapshot.str();
  body += "}";
  return body;
}

}  // namespace w4k::serve
