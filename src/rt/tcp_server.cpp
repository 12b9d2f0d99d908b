#include "rt/tcp_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "netio/frame.hpp"

namespace memfss::rt {

namespace {

using Clock = std::chrono::steady_clock;

// epoll user-data ids; connections start above the reserved ones.
constexpr std::uint64_t kListenId = 1;
constexpr std::uint64_t kWakeId = 2;
constexpr std::uint64_t kFirstConnId = 8;

// How long shutdown waits for busy connections to drain before
// force-closing them.
constexpr std::chrono::milliseconds kDrainTimeout{5000};

int make_listen_socket(std::uint16_t port, std::uint16_t* bound_port,
                       std::string* err) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *err = std::string("socket: ") + strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // One listening socket per reactor on the same port: the kernel
  // shards accepts across them (no shared accept lock).
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 256) != 0) {
    *err = std::string("bind/listen: ") + strerror(errno);
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

std::uint32_t retry_after_us(double retry_after_s) {
  if (retry_after_s <= 0.0) return 0;
  // Round up: a positive hint must never truncate to "retry now".
  const double us = std::ceil(retry_after_s * 1e6);
  return us >= 4e9 ? 4000000000u : static_cast<std::uint32_t>(us);
}

/// Worker threads hand encoded responses back to the owning reactor
/// through this queue. Completion callbacks hold it by shared_ptr, so
/// a callback firing after the reactor exited posts into a closed
/// queue (dropped) instead of touching freed memory or a recycled fd.
struct CompletionQueue {
  std::mutex mu;
  bool open = true;
  int wake_fd;  ///< eventfd, owned; closed by the destructor
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> items;

  CompletionQueue() {
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0) throw std::runtime_error("eventfd failed");
  }
  ~CompletionQueue() { ::close(wake_fd); }

  void post(std::uint64_t conn_id, std::vector<std::uint8_t> bytes) {
    std::lock_guard lk(mu);
    if (!open) return;
    const bool was_empty = items.empty();
    items.emplace_back(conn_id, std::move(bytes));
    if (was_empty) wake_locked();
  }

  void wake() {
    std::lock_guard lk(mu);
    if (open) wake_locked();
  }

  void close_posting() {
    std::lock_guard lk(mu);
    open = false;
  }

 private:
  void wake_locked() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd, &one, sizeof(one));  // EAGAIN = already signaled
  }
};

struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  netio::FrameDecoder decoder;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;      ///< flushed prefix of wbuf
  std::size_t pending = 0;   ///< ops submitted, response not yet queued
  std::size_t drain_frames = 0;  ///< responses appended by this drain
  std::size_t inline_ops = 0;    ///< completed in place this handle_read
  std::string token;         ///< set by AUTH, used by every later op
  bool want_write = false;   ///< EPOLLOUT currently armed
  bool read_open = true;     ///< still accepting request frames
  bool closing = false;      ///< close once pending == 0 and flushed
  Clock::time_point last_activity{};  ///< drives idle reaping

  std::size_t unsent() const { return wbuf.size() - woff; }

  explicit Conn(std::size_t max_body) : decoder(max_body) {}
};

/// The submit_async call a reactor has on its stack, set only around
/// that call (never on a worker thread). A completion that finds it set
/// fired synchronously -- the op ran inline or admission shed it -- and
/// appends its response straight to the connection's write buffer.
struct InSubmit {
  Conn* conn;
  bool completed = false;
};
thread_local InSubmit* tl_in_submit = nullptr;

/// The response to request `rid` without its value bytes, which are
/// encoded straight from `r.value` (netio::encode_response).
netio::Frame response_head(const OpResult& r, std::uint64_t rid, bool is_get,
                           bool is_exists) {
  netio::Frame resp;
  resp.kind = netio::Frame::Kind::response;
  resp.status = static_cast<std::uint8_t>(r.code);
  resp.request_id = rid;
  resp.retry_after_us = retry_after_us(r.retry_after_s);
  if (r.seq.has_value()) {
    resp.flags |= netio::kFlagHasSeq;
    resp.seq = *r.seq;
  }
  if (is_exists && r.found) resp.flags |= netio::kFlagFound;
  if (is_get && r.code == Errc::ok) {
    resp.checksum = r.value.checksum();
    resp.value_size = static_cast<std::uint32_t>(r.value.size());
  }
  return resp;
}

}  // namespace

struct TcpServer::Reactor {
  TcpServer* owner;
  std::size_t index = 0;
  int epfd = -1;
  int listen_fd = -1;
  /// Held open so an EMFILE/ENFILE accept can free one descriptor to
  /// accept and drop the pending connection (see handle_accept).
  int spare_fd = -1;
  std::shared_ptr<CompletionQueue> completions;
  /// drain_completions scratch, kept to reuse capacity: the swapped-out
  /// queue, and the connections that received responses this drain.
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> drained;
  std::vector<Conn*> touched;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = kFirstConnId;
  std::atomic<bool> stopping{false};
  bool deadline_armed = false;
  Clock::time_point drain_deadline;
  Clock::time_point next_reap_scan{};  ///< idle-reap scan throttle
  std::thread th;

  ~Reactor() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (spare_fd >= 0) ::close(spare_fd);
    if (epfd >= 0) ::close(epfd);
  }

  ServingMetrics& metrics() { return owner->server_.metrics(); }
  const Options& opt() const { return owner->opt_; }

  void update_interest(Conn& c) {
    epoll_event ev{};
    ev.events = (c.read_open ? EPOLLIN : 0u) | (c.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = c.id;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void close_conn(Conn& c) {
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    metrics().count(Counter::net_closed);
    metrics().connections.add(-1);
    conns.erase(c.id);  // destroys c; caller must not touch it again
  }

  /// Flush as much of the write buffer as the socket takes. Returns
  /// false when the connection died (caller must stop touching it).
  bool try_flush(Conn& c) {
    while (c.woff < c.wbuf.size()) {
      const ssize_t w = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (w > 0) {
        c.woff += static_cast<std::size_t>(w);
        c.last_activity = Clock::now();
        metrics().count(Counter::net_send_calls);
        metrics().count(Counter::net_bytes_out, static_cast<std::uint64_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          c.want_write = true;
          update_interest(c);
        }
        return true;
      }
      metrics().count(Counter::net_resets);  // peer reset mid-write
      close_conn(c);
      return false;
    }
    c.wbuf.clear();
    c.woff = 0;
    if (c.want_write) {
      c.want_write = false;
      update_interest(c);
    }
    return true;
  }

  /// Close if the connection is fully drained and marked for closing.
  /// Returns false when it closed.
  bool maybe_close(Conn& c) {
    if (c.closing && c.pending == 0 && c.unsent() == 0) {
      close_conn(c);
      return false;
    }
    return true;
  }

  /// Queue the one-and-only protocol-error frame and start closing.
  void protocol_error(Conn& c) {
    metrics().count(Counter::net_protocol_errors);
    netio::Frame err;
    err.kind = netio::Frame::Kind::response;
    err.status = static_cast<std::uint8_t>(Errc::invalid_argument);
    err.flags = netio::kFlagProtocolError;
    netio::encode_frame(err, c.wbuf);
    metrics().count(Counter::net_frames_out);
    c.read_open = false;
    c.closing = true;
    update_interest(c);
  }

  void submit_frame(Conn& c, netio::Frame& f) {
    Op op;
    switch (static_cast<netio::Opcode>(f.opcode)) {
      case netio::Opcode::put:
        op.type = Op::Type::put;
        op.value = kvstore::Blob::materialized(std::move(f.value));
        break;
      case netio::Opcode::get: op.type = Op::Type::get; break;
      case netio::Opcode::del: op.type = Op::Type::del; break;
      case netio::Opcode::exists: op.type = Op::Type::exists; break;
      case netio::Opcode::auth:
        op.type = Op::Type::auth;
        // The token travels in the key field and sticks to the
        // connection -- set it first so the AUTH op itself validates it.
        c.token.assign(f.key);
        break;
    }
    op.key = std::move(f.key);
    op.tenant = f.tenant;
    ++c.pending;
    const bool is_get = op.type == Op::Type::get;
    const bool is_exists = op.type == Op::Type::exists;
    // Only cheap ops may run on the reactor, which other connections
    // share: none of an erasure-coded tenant's, no put over
    // kInlineMaxValue, and at most kInlineBudget per read pass.
    const TenantRegistry& tenants = owner->server_.tenants();
    const bool allow_inline =
        c.inline_ops < kInlineBudget &&
        !(tenants.valid(op.tenant) && tenants.rs_coder(op.tenant)) &&
        !(op.type == Op::Type::put && op.value.size() > kInlineMaxValue);
    InSubmit here{&c};
    tl_in_submit = &here;
    owner->server_.submit_async(
        c.token, std::move(op),
        [q = completions, cid = c.id, rid = f.request_id, is_get,
         is_exists](OpResult r) {
          // Only a GET hit carries a value; every other result's is empty.
          const netio::Frame head = response_head(r, rid, is_get, is_exists);
          const auto value = r.value.bytes();
          if (InSubmit* s = tl_in_submit) {
            netio::encode_response(head, value, s->conn->wbuf);
            --s->conn->pending;
            s->completed = true;
            return;
          }
          std::vector<std::uint8_t> bytes;
          netio::encode_response(head, value, bytes);
          q->post(cid, std::move(bytes));
        },
        allow_inline);
    tl_in_submit = nullptr;
    if (here.completed) {
      ++c.inline_ops;
      metrics().count(Counter::net_frames_out);
    }
  }

  /// Decode and dispatch every complete frame buffered on `c`.
  /// Returns false when the connection died.
  bool process_frames(Conn& c) {
    netio::Frame f;
    while (c.read_open) {
      const auto t0 = Clock::now();
      const netio::Decode d = c.decoder.next(f);
      if (d == netio::Decode::need_more) return true;
      if (d == netio::Decode::error) {
        protocol_error(c);
        if (!try_flush(c)) return false;
        return maybe_close(c);
      }
      metrics().frame_decode_s.add(
          std::chrono::duration<double>(Clock::now() - t0).count());
      metrics().count(Counter::net_frames_in);
      if (f.kind != netio::Frame::Kind::request) {
        // A client pushing response frames is as malformed as bad magic.
        protocol_error(c);
        if (!try_flush(c)) return false;
        return maybe_close(c);
      }
      submit_frame(c, f);
    }
    return true;
  }

  /// Flush, then cut a client that pipelines requests but never drains
  /// responses -- its buffered responses must not pin memory. Returns
  /// false when the connection died.
  bool flush_or_cut(Conn& c) {
    if (!try_flush(c)) return false;
    if (c.unsent() <= opt().max_write_buffer) return true;
    metrics().count(Counter::net_slow_client_disconnects);
    close_conn(c);
    return false;
  }

  /// Returns false when the connection died.
  bool handle_read(Conn& c) {
    c.inline_ops = 0;
    while (c.read_open) {
      // Straight into the decoder's buffer: no copy before the decode.
      const auto room = c.decoder.tail(netio::kRecvChunk);
      const ssize_t r = ::recv(c.fd, room.data(), room.size(), 0);
      if (r > 0) {
        c.decoder.commit(static_cast<std::size_t>(r));
        c.last_activity = Clock::now();
        metrics().count(Counter::net_bytes_in, static_cast<std::uint64_t>(r));
        if (!process_frames(c)) return false;
        if (static_cast<std::size_t>(r) < room.size()) break;
        continue;
      }
      if (r == 0) {  // orderly EOF: answer what's in flight, then close
        c.read_open = false;
        c.closing = true;
        update_interest(c);
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      metrics().count(Counter::net_resets);  // hard read error (ECONNRESET)
      close_conn(c);
      return false;
    }
    // One flush for every response completed in place this pass.
    if (!flush_or_cut(c)) return false;
    return maybe_close(c);
  }

  void handle_accept() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno != EMFILE && errno != ENFILE)
          return;  // EAGAIN or transient accept error: try again on epoll
        // Out of descriptors with connections still queued: the
        // level-triggered listener would fire again at once and spin
        // the reactor. Spend the spare fd to accept the oldest pending
        // connection and close it, then take the spare back.
        metrics().count(Counter::net_accept_errors);
        if (spare_fd < 0) spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (spare_fd < 0) return;
        ::close(spare_fd);
        const int dropped = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (dropped >= 0) ::close(dropped);
        spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        if (dropped < 0) return;
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (opt().so_sndbuf > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt().so_sndbuf,
                     sizeof(opt().so_sndbuf));
      auto conn = std::make_unique<Conn>(opt().max_frame_body);
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->last_activity = Clock::now();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(conn->id, std::move(conn));
      metrics().count(Counter::net_accepted);
      metrics().connections.add(1);
    }
  }

  /// Two passes so a connection gets one send() per drain, not one per
  /// response: first append every completed response to its
  /// connection's write buffer, then flush each touched connection once.
  void drain_completions() {
    {
      std::lock_guard lk(completions->mu);
      drained.swap(completions->items);
      std::uint64_t n = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(completions->wake_fd, &n, sizeof(n));
    }
    for (auto& [conn_id, bytes] : drained) {
      const auto it = conns.find(conn_id);
      if (it == conns.end()) continue;  // connection already gone
      Conn& c = *it->second;
      if (c.pending > 0) --c.pending;
      if (c.drain_frames++ == 0) touched.push_back(&c);
      c.wbuf.insert(c.wbuf.end(), bytes.begin(), bytes.end());
    }
    drained.clear();
    // Closing one connection never frees another, so the pointers stay
    // valid through this pass.
    const auto now = Clock::now();
    for (Conn* cp : touched) {
      Conn& c = *cp;
      metrics().count(Counter::net_frames_out, c.drain_frames);
      c.drain_frames = 0;
      c.last_activity = now;
      if (flush_or_cut(c)) maybe_close(c);
    }
    touched.clear();
  }

  /// Close connections that have been silent past the idle timeout. A
  /// connection with in-flight ops or unflushed responses is busy, not
  /// idle, no matter how long ago the client last wrote -- reaping it
  /// would drop acknowledged work.
  void reap_idle() {
    const auto timeout = opt().idle_timeout;
    if (timeout.count() <= 0) return;
    const auto now = Clock::now();
    if (now < next_reap_scan) return;
    next_reap_scan =
        now + std::max(timeout / 4, std::chrono::milliseconds(10));
    std::vector<std::uint64_t> idle;
    for (const auto& [id, c] : conns)
      if (c->pending == 0 && c->unsent() == 0 &&
          now - c->last_activity >= timeout)
        idle.push_back(id);
    for (const std::uint64_t id : idle) {
      const auto it = conns.find(id);
      if (it == conns.end()) continue;
      metrics().count(Counter::net_idle_reaps);
      close_conn(*it->second);
    }
  }

  void run() {
    for (;;) {
      epoll_event evs[64];
      const int n = ::epoll_wait(epfd, evs, 64, 50);
      bool woken = false;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = evs[i].data.u64;
        if (id == kListenId) {
          handle_accept();
          continue;
        }
        if (id == kWakeId) {  // drained below
          woken = true;
          continue;
        }
        const auto it = conns.find(id);
        if (it == conns.end()) continue;  // closed earlier this batch
        Conn& c = *it->second;
        if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
          // Read first even on ERR/HUP: an RST surfaces as a recv()
          // error (counted in rt.net.resets) and buffered frames that
          // raced the close still deserve answers.
          if (!handle_read(c)) continue;
        }
        if (evs[i].events & (EPOLLERR | EPOLLHUP)) {
          // Flush what we can (the peer may have only half-closed);
          // a dead socket errors out of try_flush and closes.
          if (!try_flush(c)) continue;
          c.read_open = false;
          c.closing = true;
          if (!maybe_close(c)) continue;
          update_interest(c);
          continue;
        }
        if (evs[i].events & EPOLLOUT) {
          if (!try_flush(c)) continue;
          maybe_close(c);
        }
      }
      // The queue is drained only when its eventfd fired: a batch whose
      // ops all ran inline would otherwise pay a read() that returns
      // EAGAIN. A post after epoll_wait returned leaves the eventfd
      // readable (post writes it on the empty -> non-empty edge, and
      // drain_completions clears it under the same lock as the swap),
      // so the next wait reports it.
      const bool stop = stopping.load(std::memory_order_acquire);
      if (woken || stop) drain_completions();
      reap_idle();

      if (stop) {
        if (listen_fd >= 0) {  // stop accepting; drain what's connected
          ::epoll_ctl(epfd, EPOLL_CTL_DEL, listen_fd, nullptr);
          ::close(listen_fd);
          listen_fd = -1;
        }
        if (!deadline_armed) {
          deadline_armed = true;
          drain_deadline = Clock::now() + kDrainTimeout;
        }
        // Sweep every readable connection before judging it idle:
        // frames the client wrote before shutdown may still be sitting
        // unread in the kernel buffer, and "drain" promises responses
        // for everything already on the wire.
        std::vector<std::uint64_t> ids;
        ids.reserve(conns.size());
        for (const auto& [id, c] : conns) ids.push_back(id);
        for (const std::uint64_t id : ids) {
          const auto it = conns.find(id);
          if (it != conns.end() && it->second->read_open)
            handle_read(*it->second);
        }
        const bool expired = Clock::now() >= drain_deadline;
        std::vector<std::uint64_t> closeable;
        for (auto& [id, c] : conns)
          if (expired || (c->pending == 0 && c->unsent() == 0))
            closeable.push_back(id);
        for (const std::uint64_t id : closeable) {
          const auto it = conns.find(id);
          if (it != conns.end()) close_conn(*it->second);
        }
        if (conns.empty()) break;
      }
    }
    // No further completions can be delivered; posts after this are
    // dropped by the queue instead of waking a dead loop.
    completions->close_posting();
  }
};

TcpServer::TcpServer(RuntimeServer& server, Options opt)
    : server_(server), opt_(opt) {
  if (opt_.reactors == 0) opt_.reactors = 1;
  port_ = opt_.port;
  std::string err;
  for (std::size_t i = 0; i < opt_.reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->owner = this;
    r->index = i;
    r->listen_fd = make_listen_socket(port_, &port_, &err);
    if (r->listen_fd < 0) throw std::runtime_error("TcpServer: " + err);
    r->spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    r->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (r->epfd < 0) throw std::runtime_error("TcpServer: epoll_create1");
    r->completions = std::make_shared<CompletionQueue>();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenId;
    ::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->listen_fd, &ev);
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeId;
    ::epoll_ctl(r->epfd, EPOLL_CTL_ADD, r->completions->wake_fd, &ev);
    reactors_.push_back(std::move(r));
  }
  for (auto& r : reactors_) r->th = std::thread([rp = r.get()] { rp->run(); });
}

TcpServer::~TcpServer() { shutdown(); }

void TcpServer::shutdown() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  for (auto& r : reactors_) {
    r->stopping.store(true, std::memory_order_release);
    r->completions->wake();
  }
  for (auto& r : reactors_)
    if (r->th.joinable()) r->th.join();
}

}  // namespace memfss::rt
