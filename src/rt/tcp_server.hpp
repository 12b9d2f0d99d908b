// TcpServer: the network front-end over rt::RuntimeServer (DESIGN.md
// §13) -- the step from "concurrent library" to "service a wire can
// hit".
//
// Threading model: N *reactor* threads, each owning one epoll instance
// and its own SO_REUSEPORT listening socket on the shared port, so the
// kernel shards incoming connections across reactors with no accept
// lock. A connection lives its whole life on the reactor that accepted
// it -- every read, decode, and write for it happens on that one
// thread, so per-connection state needs no locks. Frames decode into
// rt::Op and dispatch through RuntimeServer::submit_async, which runs
// the existing admission ladder (rate -> pressure -> lane, DESIGN.md
// §12). A cheap op whose worker is idle runs to completion right there
// on the reactor (server.hpp); its completion -- like an admission
// shed's -- fires inside the reactor's own submit_async call, so the
// response is encoded straight into the connection's write buffer: no
// completion-queue push, no eventfd write. A reactor is shared by many
// connections, so it keeps expensive ops off itself (allow_inline =
// false): an erasure-coded tenant's ops and puts over kInlineMaxValue
// always post, and at most kInlineBudget ops per connection complete in
// place per read pass, later frames posting, so one client cannot hold
// the reactor. Every other op executes on its shard-pinned worker,
// whose completion
// is encoded there and handed back to the owning reactor through a
// mutex-guarded completion queue + eventfd wakeup. Responses leave from
// the connection's write buffer, flushed once per read pass or per
// completion drain (EPOLLOUT armed only while a partial write is
// outstanding).
//
// Protocol: netio::Frame (length-prefixed binary, pipelined). AUTH
// binds the token in the frame's key field to the connection; every
// subsequent request uses it. OVERLOADED/REJECTED sheds travel back as
// ordinary response frames carrying the Errc and the retry-after hint
// in microseconds -- the QoS contract survives the wire intact.
//
// Slow clients: a connection whose write buffer exceeds
// `max_write_buffer` after a flush (it is not draining responses as
// fast as it pipelines requests) is disconnected and counted in
// rt.net.slow_client_disconnects -- one stalled reader must not pin
// response memory for everyone else. A malformed stream (bad magic,
// oversized length prefix, inconsistent lengths) gets one final
// protocol-error frame (status invalid_argument, kFlagProtocolError)
// and the connection is closed after it flushes.
//
// Descriptor exhaustion: when accept fails with EMFILE/ENFILE, the
// reactor closes a spare descriptor it keeps for the purpose, accepts
// the pending connection and closes it at once, then reopens the
// spare. A full backlog is shed this way instead of leaving the
// level-triggered listener readable, which would spin the reactor at
// full CPU. Each failed accept counts in rt.net.accept_errors.
//
// Metrics: reactors record rt.net.* in the server's fixed instrument
// table (rt/serving_metrics.hpp): atomic counters and connection gauge,
// and a frame-decode histogram whose mutex no worker takes.
//
// Shutdown drains: stop accepting, keep serving until every connection
// has zero in-flight ops and an empty write buffer (responses for
// frames already on the wire still go out), then close; connections
// still busy after a fixed 5 s drain timeout are force-closed.
// Completion callbacks outlive the reactors safely -- they hold the
// completion queue by shared_ptr and post into it only while it is open.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "rt/server.hpp"

namespace memfss::rt {

/// Ops one connection may complete on its reactor per read pass; its
/// later frames in that pass post to the workers.
inline constexpr std::size_t kInlineBudget = 64;
/// Largest put value a reactor runs in place; a larger put posts, so one
/// big copy never runs on a thread that other connections share.
inline constexpr Bytes kInlineMaxValue = 16 * 1024;

class TcpServer {
 public:
  struct Options {
    std::uint16_t port = 0;     ///< 0 = ephemeral (see port())
    std::size_t reactors = 1;   ///< epoll event-loop threads (>= 1)
    /// Decoder bound on one frame body; an advertised length past this
    /// is a protocol error, not an allocation.
    std::size_t max_frame_body = 16u << 20;
    /// Per-connection write-buffer bound; exceeding it disconnects the
    /// slow client.
    std::size_t max_write_buffer = 4u << 20;
    /// SO_SNDBUF for accepted sockets (0 = kernel default). Tests use
    /// a tiny value to trip the slow-client path quickly.
    int so_sndbuf = 0;
    /// Reap a connection with no in-flight ops, no unsent responses,
    /// and no traffic for this long (0 = never). Chaos blackholes and
    /// vanished clients must not pin fds forever; counted in
    /// rt.net.idle_reaps.
    std::chrono::milliseconds idle_timeout{0};
  };

  /// Binds, listens, and starts the reactors; throws std::runtime_error
  /// if the socket setup fails (ports are host resources -- failing to
  /// bind is a constructor-level error, not a recoverable op).
  TcpServer(RuntimeServer& server, Options opt);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (the ephemeral one when Options::port was 0).
  std::uint16_t port() const { return port_; }

  /// Graceful drain (see file comment). Idempotent; the destructor
  /// calls it.
  void shutdown();

 private:
  struct Reactor;

  RuntimeServer& server_;
  Options opt_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace memfss::rt
