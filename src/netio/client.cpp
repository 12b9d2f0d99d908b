#include "netio/client.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace memfss::netio {

Status NetClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return {Errc::io_error, "socket: " + std::string(strerror(errno))};
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    close();
    return {Errc::unreachable, "connect: " + why};
  }
  decoder_ = FrameDecoder{};
  timeout_dirty_ = false;
  if (recv_timeout_s_ > 0) {
    if (Status st = apply_recv_timeout(recv_timeout_s_); !st.ok()) {
      close();
      return st;
    }
  }
  return {};
}

void NetClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void NetClient::abort() {
  if (fd_ < 0) return;
  const linger lg{1, 0};  // close() now sends RST, discarding unsent data
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close();
}

Status NetClient::set_recv_timeout(double seconds) {
  if (fd_ < 0) return {Errc::unavailable, "not connected"};
  recv_timeout_s_ = seconds > 0 ? seconds : 0;
  timeout_dirty_ = false;
  return apply_recv_timeout(recv_timeout_s_);
}

Status NetClient::apply_recv_timeout(double seconds) {
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - std::floor(seconds)) * 1e6);
    // A zero timeval means "block forever"; round a sub-microsecond
    // remainder up so a nearly expired deadline still ticks.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0)
    return {Errc::io_error, strerror(errno)};
  return {};
}

Status NetClient::send(const Frame& f) { return send_raw(encode(f)); }

Status NetClient::send_raw(const std::uint8_t* data, std::size_t n) {
  if (fd_ < 0) return {Errc::unavailable, "not connected"};
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return {Errc::io_error, "send: " + std::string(strerror(errno))};
    }
    off += static_cast<std::size_t>(w);
  }
  return {};
}

Result<Frame> NetClient::recv() {
  if (fd_ < 0) return {Errc::unavailable, "not connected"};
  // A prior recv() may have left a shortened SO_RCVTIMEO behind while
  // chasing its deadline; restore the configured bound first.
  if (timeout_dirty_) {
    timeout_dirty_ = false;
    if (Status st = apply_recv_timeout(recv_timeout_s_); !st.ok())
      return st.error();
  }
  const bool bounded = recv_timeout_s_ > 0;
  // Read when the call first has to wait: a frame already buffered
  // costs no clock read.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  Frame f;
  for (;;) {
    switch (decoder_.next(f)) {
      case Decode::frame:
        return f;
      case Decode::error:
        return {Errc::corruption, "malformed stream: " + decoder_.error()};
      case Decode::need_more:
        break;
    }
    if (bounded && !deadline)
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(recv_timeout_s_));
    const auto room = decoder_.tail(kRecvChunk);
    const ssize_t r = ::recv(fd_, room.data(), room.size(), 0);
    if (r == 0) return {Errc::unavailable, "connection closed by server"};
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!bounded) {
          if (errno == EINTR) continue;  // signal: just restart the wait
          return {Errc::timeout, "recv timed out"};
        }
        // A signal or an early SO_RCVTIMEO wakeup is only a timeout if
        // the *whole-call* budget is spent; otherwise re-arm the socket
        // timer with the remainder and keep waiting. The per-call timer
        // restarts from the interruption, so without this a signal storm
        // would both fire premature timeouts (EAGAIN after a shortened
        // sleep) and extend the bound indefinitely (EINTR restarts).
        const double remaining =
            std::chrono::duration<double>(*deadline -
                                          std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0) return {Errc::timeout, "recv timed out"};
        timeout_dirty_ = true;
        if (Status st = apply_recv_timeout(remaining); !st.ok())
          return st.error();
        continue;
      }
      return {Errc::io_error, "recv: " + std::string(strerror(errno))};
    }
    decoder_.commit(static_cast<std::size_t>(r));
  }
}

namespace {

Frame make_request(Opcode op, std::uint64_t id, std::uint32_t tenant,
                   std::string_view key) {
  Frame f;
  f.kind = Frame::Kind::request;
  f.opcode = static_cast<std::uint8_t>(op);
  f.request_id = id;
  f.tenant = tenant;
  f.key.assign(key);
  return f;
}

}  // namespace

Frame NetClient::make_put(std::uint64_t id, std::uint32_t tenant,
                          std::string_view key,
                          std::vector<std::uint8_t> value) {
  Frame f = make_request(Opcode::put, id, tenant, key);
  f.value = std::move(value);
  return f;
}

Frame NetClient::make_get(std::uint64_t id, std::uint32_t tenant,
                          std::string_view key) {
  return make_request(Opcode::get, id, tenant, key);
}

Frame NetClient::make_del(std::uint64_t id, std::uint32_t tenant,
                          std::string_view key) {
  return make_request(Opcode::del, id, tenant, key);
}

Frame NetClient::make_exists(std::uint64_t id, std::uint32_t tenant,
                             std::string_view key) {
  return make_request(Opcode::exists, id, tenant, key);
}

Frame NetClient::make_auth(std::uint64_t id, std::string_view token) {
  return make_request(Opcode::auth, id, 0, token);
}

}  // namespace memfss::netio
