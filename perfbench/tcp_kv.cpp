// tcp_kv_1k: the request path a workflow task uses. One client thread
// drives 2 pipelined connections over loopback TCP against a TcpServer
// with 1 reactor and 1 worker (service_time 0, 16 store shards). 1 KiB
// values, 50:50 get:put, keys uniform over 16384. Closed loop: each
// connection keeps at most kWindow requests outstanding and refills in
// chunks of kChunk once that many replies are in.
//
// Keys are partitioned by connection (key % 2), so one key's ops travel
// one stream in order; the server keeps that order (one worker, FIFO),
// so a sequential map updated at send time predicts every reply. Every
// GET's status, checksum and bytes are checked against it.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "hash/hashes.hpp"
#include "harness.hpp"
#include "netio/client.hpp"
#include "netio/frame.hpp"
#include "rt/opstream.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tcp_server.hpp"

namespace perfbench {

using namespace memfss;

namespace {

constexpr std::size_t kValue = 1024;
constexpr std::uint32_t kKeys = 16384;
constexpr std::size_t kShards = 16;
constexpr std::size_t kConns = 2;
constexpr std::size_t kWindow = 32;  ///< max requests outstanding per connection
constexpr std::size_t kChunk = 16;   ///< requests written per send
constexpr std::size_t kRing = 1024;  ///< per-connection slots, > kWindow
constexpr std::size_t kPool = 1024;  ///< distinct put payloads
constexpr double kGetFraction = 0.5;
constexpr std::size_t kWindowOps = 8192;  ///< ops per measurement window
constexpr std::size_t kCountOps = 4096;  ///< fixed prefix for alloc counts
constexpr int kSetups = 64;  ///< set-ups per untraced run
const std::string kToken = "perfbench";

struct KvOp {
  bool get;
  std::uint32_t key;
  std::uint32_t value;  ///< payload pool index (puts)
};

/// Seeded op stream of one connection: keys in its partition only.
class OpGen {
 public:
  OpGen(std::uint64_t seed, std::size_t conn)
      : rng_(splitmix_seed(seed, conn)), conn_(conn) {}
  KvOp next() {
    KvOp op;
    op.get = rng_.next_double() < kGetFraction;
    op.key = static_cast<std::uint32_t>(
        conn_ + kConns * rng_.uniform_u64(0, kKeys / kConns - 1));
    op.value = static_cast<std::uint32_t>(rng_.uniform_u64(0, kPool - 1));
    return op;
  }

 private:
  static std::uint64_t splitmix_seed(std::uint64_t seed, std::size_t c) {
    std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + c + 1;
    return splitmix64(s);
  }
  Rng rng_;
  std::size_t conn_;
};

/// The sequential reference: payload index resident under each key.
struct Model {
  std::vector<std::uint32_t> value;
  Model() : value(kKeys) {
    for (std::uint32_t k = 0; k < kKeys; ++k) value[k] = k % kPool;
  }
};

/// Store + RuntimeServer + TcpServer + authenticated client connections.
struct Stack {
  std::unique_ptr<rt::ShardedStore> store;
  std::unique_ptr<rt::RuntimeServer> server;
  std::unique_ptr<rt::TcpServer> tcp;
  std::vector<netio::NetClient> conns;

  Stack(const std::vector<kvstore::Blob>& pool, Report& r) {
    store = std::make_unique<rt::ShardedStore>(
        rt::ShardedStore::Options{kShards, 256 * units::MiB, kToken});
    for (std::uint32_t k = 0; k < kKeys; ++k)
      if (!store->put(kToken, rt::loadgen_key(k), pool[k % kPool]).ok())
        r.fail("preload put failed");
    server = std::make_unique<rt::RuntimeServer>(
        *store, rt::RuntimeServer::Options{1, 1024, std::chrono::microseconds(0)});
    tcp = std::make_unique<rt::TcpServer>(*server, rt::TcpServer::Options{});
    conns.resize(kConns);
    for (std::size_t c = 0; c < kConns; ++c) {
      auto& nc = conns[c];
      if (!nc.connect(tcp->port()).ok() || !nc.set_recv_timeout(10.0).ok() ||
          !nc.send(netio::NetClient::make_auth(c, kToken)).ok()) {
        r.fail("connect/auth failed");
        continue;
      }
      auto a = nc.recv();
      if (!a.ok() || a.value().status != 0) r.fail("auth rejected");
    }
  }
  ~Stack() {
    conns.clear();
    tcp->shutdown();
    server->shutdown();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

netio::Frame request_frame(const KvOp& op, std::uint64_t rid,
                           const std::vector<kvstore::Blob>& pool) {
  if (op.get) return netio::NetClient::make_get(rid, 0, rt::loadgen_key(op.key));
  const auto b = pool[op.value].bytes();
  return netio::NetClient::make_put(rid, 0, rt::loadgen_key(op.key),
                                    std::vector<std::uint8_t>(b.begin(), b.end()));
}

/// The response frame the server sends for `op` (model state `expect`).
netio::Frame response_frame(const KvOp& op, std::uint64_t rid,
                            std::uint32_t expect,
                            const std::vector<kvstore::Blob>& pool) {
  netio::Frame f;
  f.kind = netio::Frame::Kind::response;
  f.request_id = rid;
  f.flags = netio::kFlagHasSeq;
  f.seq = rid;
  if (op.get) {
    const auto& b = pool[expect];
    f.checksum = b.checksum();
    f.value_size = static_cast<std::uint32_t>(b.size());
    f.value.assign(b.bytes().begin(), b.bytes().end());
  }
  return f;
}

/// Check one reply against the model's prediction.
bool reply_ok(const KvOp& op, std::uint32_t expect, std::uint8_t status,
              std::uint64_t checksum, std::span<const std::uint8_t> value,
              const std::vector<kvstore::Blob>& pool) {
  if (status != static_cast<std::uint8_t>(Errc::ok)) return false;
  if (!op.get) return true;
  const auto& want = pool[expect];
  return checksum == want.checksum() && value.size() == want.size() &&
         std::memcmp(value.data(), want.bytes().data(), value.size()) == 0;
}

struct Pending {
  std::uint64_t rid = 0;
  bool live = false;
  KvOp op{};
  std::uint32_t expect = 0;
  Clock::time_point sent;
};

struct ClientConn {
  ClientConn(netio::NetClient* client, OpGen stream) : nc(client), gen(stream) {}

  netio::NetClient* nc;
  OpGen gen;
  std::vector<Pending> ring = std::vector<Pending>(kRing);
  std::uint64_t next_rid = 1000;  // ids below are the AUTH requests
  std::size_t inflight = 0;
  std::vector<std::uint8_t> wire;
};

/// What one closed-loop phase produced.
struct LoopStats {
  std::uint64_t ops = 0;
  double seconds = 0;
};

class Client {
 public:
  Client(Stack& st, const std::vector<kvstore::Blob>& pool, Model& model,
         std::uint64_t seed, Report& r, SpanLog& log)
      : pool_(pool), model_(model), r_(r), log_(log) {
    for (std::size_t c = 0; c < kConns; ++c)
      conns_.emplace_back(&st.conns[c], OpGen(seed, c));
  }

  /// Pipelined closed loop for `seconds`, then drain every reply.
  /// Latencies go to `w` when given.
  LoopStats pipelined(double seconds, Windows* w = nullptr) {
    LoopStats s;
    const auto t0 = Clock::now();
    const auto stop = t0 + std::chrono::duration<double>(seconds);
    if (w) w->restart(t0);
    for (auto& c : conns_) send_chunk(c, kWindow);
    bool running = true;
    while (running) {
      for (auto& c : conns_) {
        while (c.inflight > kWindow - kChunk)
          if (!recv_one(c, s, w)) running = false;
        if (!running || Clock::now() >= stop) {
          running = false;
          break;
        }
        send_chunk(c, kChunk);
      }
    }
    for (auto& c : conns_)
      while (c.inflight > 0 && recv_one(c, s, w)) {
      }
    s.seconds = seconds_between(t0, Clock::now());
    return s;
  }

  /// One request outstanding at a time, alternating connections (the
  /// waterfall's end-to-end term); each op's latency goes to `lat_us`.
  void unpipelined(double seconds, std::vector<double>& lat_us) {
    LoopStats s;
    const auto stop = Clock::now() + std::chrono::duration<double>(seconds);
    std::size_t i = 0;
    while (Clock::now() < stop) {
      auto& c = conns_[i++ % kConns];
      send_chunk(c, 1);
      if (!recv_one(c, s, nullptr, &lat_us)) break;
    }
  }

 private:
  void send_chunk(ClientConn& c, std::size_t n) {
    c.wire.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const KvOp op = c.gen.next();
      const std::uint64_t rid = c.next_rid++;
      Pending& p = c.ring[rid % kRing];
      if (p.live) r_.fail("request id ring overrun");
      p = Pending{rid, true, op, model_.value[op.key], {}};
      if (!op.get) model_.value[op.key] = op.value;
      netio::encode_frame(request_frame(op, rid, pool_), c.wire);
    }
    const auto now = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
      c.ring[(c.next_rid - 1 - i) % kRing].sent = now;
    r_.attempted += n;
    c.inflight += n;
    if (!c.nc->send_raw(c.wire).ok()) r_.fail("send failed");
  }

  bool recv_one(ClientConn& c, LoopStats& s, Windows* w,
                std::vector<double>* lat_us = nullptr) {
    auto got = c.nc->recv();
    if (!got.ok()) {
      r_.fail("recv: " + got.error().to_string());
      r_.failed += c.inflight - 1;  // the rest of the window is lost
      c.inflight = 0;
      return false;
    }
    const auto now = Clock::now();
    const netio::Frame& f = got.value();
    Pending& p = c.ring[f.request_id % kRing];
    if (!p.live || p.rid != f.request_id) {
      r_.fail("reply to an unknown or answered request id");
      return true;
    }
    p.live = false;
    --c.inflight;
    ++s.ops;
    if (!reply_ok(p.op, p.expect, f.status, f.checksum, f.value, pool_))
      r_.fail("reply disagrees with the reference model (key " +
              std::to_string(p.op.key) + ")");
    const double lat = us_between(p.sent, now);
    if (lat_us) lat_us->push_back(lat);
    if (w) w->add(lat, now);
    log_.record("tcp.op", p.sent, now);
    return true;
  }

  const std::vector<kvstore::Blob>& pool_;
  Model& model_;
  Report& r_;
  SpanLog& log_;
  std::vector<ClientConn> conns_;
};

// --- per-layer probes -------------------------------------------------------

struct CodecCosts {
  double enc_req = 0, enc_resp = 0, dec_req = 0, dec_resp = 0, checksum = 0;
  double allocs_per_frame = 0;
};

/// encode_frame / FrameDecoder / body_checksum over the workload's own
/// request and response frames.
CodecCosts codec_costs(SpanLog& log, std::uint64_t seed,
                       const std::vector<kvstore::Blob>& pool, double budget_s,
                       Report& r) {
  Model model;
  OpGen gen(seed ^ 0xc0dec, 0);
  std::vector<netio::Frame> req, resp;
  for (std::size_t i = 0; i < kCountOps; ++i) {
    const KvOp op = gen.next();
    req.push_back(request_frame(op, i, pool));
    resp.push_back(response_frame(op, i, model.value[op.key], pool));
    if (!op.get) model.value[op.key] = op.value;
  }
  std::vector<std::vector<std::uint8_t>> req_wire(kCountOps), resp_wire(kCountOps);
  std::vector<std::uint8_t> wire;
  netio::FrameDecoder dec;
  auto enc_req = [&](std::size_t i) {
    wire.clear();
    netio::encode_frame(req[i], wire);
  };
  auto enc_resp = [&](std::size_t i) { resp_wire[i] = netio::encode(resp[i]); };
  auto decode = [&](const std::vector<std::uint8_t>& bytes,
                    const netio::Frame& want) {
    netio::Frame f;
    dec.feed(bytes);
    if (dec.next(f) != netio::Decode::frame || f.request_id != want.request_id)
      r.fail("codec round trip failed");
  };
  for (std::size_t i = 0; i < kCountOps; ++i) {
    enc_req(i);
    req_wire[i] = wire;
    enc_resp(i);
  }
  CodecCosts c;
  {
    AllocCount count;
    for (std::size_t i = 0; i < kCountOps; ++i) {
      enc_req(i);
      enc_resp(i);
      decode(req_wire[i], req[i]);
      decode(resp_wire[i], resp[i]);
    }
    c.allocs_per_frame =
        static_cast<double>(count.allocations()) / (2.0 * kCountOps);
  }
  const double b = budget_s / 5;
  c.enc_req = per_call_us(log, "netio.encode_req", kCountOps, b, enc_req);
  c.enc_resp = per_call_us(log, "netio.encode_resp", kCountOps, b, enc_resp);
  c.dec_req = per_call_us(log, "netio.decode_req", kCountOps, b,
                          [&](std::size_t i) { decode(req_wire[i], req[i]); });
  c.dec_resp = per_call_us(log, "netio.decode_resp", kCountOps, b,
                           [&](std::size_t i) { decode(resp_wire[i], resp[i]); });
  volatile std::uint16_t sink = 0;
  c.checksum = per_call_us(log, "netio.checksum", 2 * kCountOps, b,
                           [&](std::size_t i) {
                             const auto& w = i % 2 ? resp_wire[i / 2]
                                                   : req_wire[i / 2];
                             sink = netio::body_checksum(
                                 w.data() + netio::kHeaderLen,
                                 w.size() - netio::kHeaderLen);
                           });
  (void)sink;
  return c;
}

/// Raw TCP echo of the workload's frame sizes: a blocking peer thread
/// reads one request frame and writes back a response frame of the size
/// the server would send. No decode, no store: the syscall and wakeup
/// floor under the socket path.
class EchoPeer {
 public:
  EchoPeer(std::uint64_t seed, const std::vector<kvstore::Blob>& pool) {
    Model model;
    OpGen gen(seed ^ 0xec40, 0);
    for (std::size_t i = 0; i < kCountOps; ++i) {
      const KvOp op = gen.next();
      req_.push_back(netio::encode(request_frame(op, i, pool)));
      auto resp = netio::encode(response_frame(op, i, model.value[op.key], pool));
      resp_len_.push_back(resp.size());
      (op.get ? get_resp_ : put_resp_) = std::move(resp);
      if (!op.get) model.value[op.key] = op.value;
    }
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool listening =
        lfd >= 0 &&
        ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(lfd, 1) == 0 &&
        ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    client_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listening && client_ >= 0 &&
        ::connect(client_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      peer_ = ::accept(lfd, nullptr, nullptr);
    if (lfd >= 0) ::close(lfd);
    if (peer_ < 0) {
      if (client_ >= 0) ::close(client_);
      throw std::runtime_error("loopback echo setup failed");
    }
    const int one = 1;
    ::setsockopt(client_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(peer_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    echo_ = std::thread([this] {
      std::vector<std::uint8_t> buf(1 << 16);
      std::uint32_t body = 0;
      while (read_exact(peer_, buf.data(), netio::kHeaderLen)) {
        std::memcpy(&body, buf.data() + 4, 4);
        if (body > buf.size() || !read_exact(peer_, buf.data(), body)) break;
        const auto& out =
            buf[0] == static_cast<std::uint8_t>(netio::Opcode::get) ? get_resp_
                                                                    : put_resp_;
        if (!write_all(peer_, out.data(), out.size())) break;
      }
    });
  }
  ~EchoPeer() {
    ::shutdown(client_, SHUT_RDWR);
    echo_.join();
    ::close(client_);
    ::close(peer_);
  }
  EchoPeer(const EchoPeer&) = delete;
  EchoPeer& operator=(const EchoPeer&) = delete;

  /// One round trip of the next frame pair; false on a socket error.
  bool round_trip() {
    const std::size_t i = next_++ % req_.size();
    return write_all(client_, req_[i].data(), req_[i].size()) &&
           read_exact(client_, in_.data(), resp_len_[i]);
  }

 private:
  static bool read_exact(int fd, std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t got = ::recv(fd, p, n, 0);
      if (got <= 0) return false;
      p += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  }
  static bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
      if (put <= 0) return false;
      p += put;
      n -= static_cast<std::size_t>(put);
    }
    return true;
  }

  std::vector<std::vector<std::uint8_t>> req_;
  std::vector<std::size_t> resp_len_;
  std::vector<std::uint8_t> get_resp_, put_resp_;
  std::vector<std::uint8_t> in_ = std::vector<std::uint8_t>(1 << 16);
  std::size_t next_ = 0;
  int client_ = -1;
  int peer_ = -1;
  std::thread echo_;  // last: joined before the buffers it reads go away
};

/// Ops submitted to RuntimeServer one at a time, built the way the
/// reactor builds them from a decoded frame; the caller blocks on an
/// EventWaiter, as the reactor blocks in epoll_wait.
class ServerProbe {
 public:
  ServerProbe(Stack& st, Model& model, std::uint64_t seed,
              const std::vector<kvstore::Blob>& pool, Report& r, SpanLog& log)
      : st_(st), model_(model), gen_(seed ^ 0x5e4e, 0), pool_(pool), r_(r), log_(log) {}

  /// Microseconds from building the Op to the completion's wakeup.
  double one() {
    const KvOp op = gen_.next();
    const std::uint32_t expect = model_.value[op.key];
    std::vector<std::uint8_t> bytes;
    if (!op.get) {
      const auto b = pool_[op.value].bytes();
      bytes.assign(b.begin(), b.end());
      model_.value[op.key] = op.value;
    }
    const auto t0 = Clock::now();
    rt::Op o;
    o.type = op.get ? rt::Op::Type::get : rt::Op::Type::put;
    o.key = rt::loadgen_key(op.key);
    if (!op.get) o.value = kvstore::Blob::materialized(std::move(bytes));
    st_.server->submit_async(kToken, std::move(o), [this](rt::OpResult res) {
      result_ = std::move(res);
      waiter_.notify();
    });
    waiter_.wait();
    const auto t1 = Clock::now();
    log_.record("rt.server", t0, t1);
    ++r_.attempted;
    if (!reply_ok(op, expect, static_cast<std::uint8_t>(result_.code),
                  result_.value.checksum(), result_.value.bytes(), pool_))
      r_.fail("server reply disagrees with the reference model");
    return us_between(t0, t1);
  }

 private:
  Stack& st_;
  Model& model_;
  OpGen gen_;
  const std::vector<kvstore::Blob>& pool_;
  Report& r_;
  SpanLog& log_;
  EventWaiter waiter_;
  rt::OpResult result_;
};

/// The same op stream replayed directly on ShardedStore.
struct StoreCosts {
  double store_us = 0;
  double allocs_per_op = 0;
};

StoreCosts store_costs(SpanLog& log, Stack& st, Model& model,
                       std::uint64_t seed,
                       const std::vector<kvstore::Blob>& pool, double budget_s,
                       Report& r) {
  OpGen gen(seed ^ 0x57013, 0);
  auto one = [&](bool timed_call, double& us) {
    const KvOp op = gen.next();
    const std::uint32_t expect = model.value[op.key];
    const std::string key = rt::loadgen_key(op.key);
    kvstore::Blob value = op.get ? kvstore::Blob{} : pool[op.value];
    if (!op.get) model.value[op.key] = op.value;
    bool ok = false;
    const auto t0 = Clock::now();
    if (op.get) {
      auto got = st.store->get(kToken, key);
      ok = got.ok() && reply_ok(op, expect, 0, got.value().checksum(),
                                got.value().bytes(), pool);
    } else {
      ok = st.store->put(kToken, key, std::move(value)).ok();
    }
    const auto t1 = Clock::now();
    if (timed_call) {
      us = us_between(t0, t1);
      log.record("rt.store", t0, t1);
    }
    ++r.attempted;
    if (!ok) r.fail("store reply disagrees with the reference model");
  };
  StoreCosts c;
  double unused = 0;
  {
    AllocCount count;
    for (std::size_t i = 0; i < kCountOps; ++i) one(false, unused);
    c.allocs_per_op = static_cast<double>(count.allocations()) / kCountOps;
  }
  std::vector<double> us;
  const auto stop = Clock::now() + std::chrono::duration<double>(budget_s);
  do {
    us.emplace_back();
    one(true, us.back());
  } while (Clock::now() < stop);
  c.store_us = mean(us);
  return c;
}

}  // namespace

void run_tcp_kv(const RunArgs& a, SpanLog& log, Report& r) {
  const auto pool = make_payloads(a.seed, kPool, kValue);
  Model model;
  r.note("input: 1 KiB values, 50:50 get:put, keys uniform over 16384, "
         "1 client thread x 2 connections, window 32");

  if (!a.trace) {
    // Half the set-ups run before the measured phase and half after it,
    // so their median spans the run's host conditions.
    std::vector<double> setup;
    std::unique_ptr<Stack> st;
    auto set_up = [&] {
      st.reset();
      const auto t0 = Clock::now();
      st = std::make_unique<Stack>(pool, r);
      setup.push_back(seconds_between(t0, Clock::now()));
    };
    for (int i = 0; i < kSetups / 2; ++i) set_up();
    {
      Client client(*st, pool, model, a.seed, r, log);
      (void)client.pipelined(std::min(1.0, a.seconds / 10));  // warm-up
      Windows w(kWindowOps);
      (void)client.pipelined(a.seconds, &w);
      w.report(r, "ops");
    }
    r.add("stored_bytes_per_user_byte",
          static_cast<double>(st->store->used()) /
              static_cast<double>(std::size_t{kKeys} * kValue),
          "ratio");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    for (int i = kSetups / 2; i < kSetups; ++i) set_up();
    r.add("setup_s", quantile(setup, 0.5), "s");
    return;
  }

  // Traced. The counted prefixes run first, on the freshly preloaded
  // stack, so the allocation counts depend on the seed alone. Then the
  // pipelined loop without and with per-op spans, then one probe per
  // layer. Budget shares sum to a.seconds.
  const double S = a.seconds;
  Stack st(pool, r);
  const StoreCosts store = store_costs(log, st, model, a.seed, pool, 0.1 * S, r);
  ServerProbe server(st, model, a.seed, pool, r, log);
  double server_allocs = 0;
  {
    AllocCount count;
    for (std::size_t i = 0; i < kCountOps; ++i) (void)server.one();
    server_allocs = static_cast<double>(count.allocations()) / kCountOps;
  }
  Client client(st, pool, model, a.seed, r, log);
  (void)client.pipelined(std::min(1.0, S / 10));
  Windows w(kWindowOps);
  const LoopStats plain = client.pipelined(0.2 * S, &w);
  w.report(r, "ops");
  log.enable(true);
  const LoopStats traced = client.pipelined(0.1 * S);
  const double overhead = (static_cast<double>(plain.ops) / plain.seconds) /
                              (static_cast<double>(traced.ops) / traced.seconds) -
                          1.0;

  // The waterfall: the unpipelined socket path, the echo floor and the
  // server probe are measured in interleaved rounds, so that slow
  // periods of a shared host land on all three terms alike. Each term is
  // a median: a slow spell puts outliers into the socket path's four
  // wakeups more often than into the two of each probe.
  std::vector<double> e2e, rtt, srv;
  {
    EchoPeer echo(a.seed, pool);
    constexpr int kRounds = 10;
    const double slice = 0.3 * S / (3 * kRounds);
    for (int round = 0; round < kRounds; ++round) {
      client.unpipelined(slice, e2e);
      auto stop = Clock::now() + std::chrono::duration<double>(slice);
      do {
        const auto t0 = Clock::now();
        if (!echo.round_trip()) r.fail("echo round trip failed");
        const auto t1 = Clock::now();
        log.record("net.loopback_rtt", t0, t1);
        rtt.push_back(us_between(t0, t1));
      } while (Clock::now() < stop);
      stop = Clock::now() + std::chrono::duration<double>(slice);
      do {
        srv.push_back(server.one());
      } while (Clock::now() < stop);
    }
  }
  const double e2e_us = quantile(e2e, 0.5);
  const double rtt_us = quantile(rtt, 0.5);
  const double server_us = quantile(srv, 0.5);
  const CodecCosts codec = codec_costs(log, a.seed, pool, 0.15 * S, r);
  volatile std::uint64_t sink = 0;
  const auto& payload = pool[0].bytes();
  const double fnv_us =
      per_call_us(log, "hash.fnv_payload", 64, 0.05 * S, [&](std::size_t) {
        sink = hash::fnv1a({reinterpret_cast<const char*>(payload.data()),
                            payload.size()});
      });
  (void)sink;

  const double accounted = codec.enc_req + codec.dec_req + codec.enc_resp +
                           codec.dec_resp + server_us + rtt_us;
  const double residual = e2e_us - accounted;
  r.add("netio.encode_req_us", codec.enc_req, "us");
  r.add("netio.encode_resp_us", codec.enc_resp, "us");
  r.add("netio.decode_req_us", codec.dec_req, "us");
  r.add("netio.decode_resp_us", codec.dec_resp, "us");
  r.add("netio.checksum_us", codec.checksum, "us");
  r.add("netio.allocs_per_frame", codec.allocs_per_frame, "count");
  r.add("rt.store_us", store.store_us, "us");
  r.add("rt.store.allocs_per_op", store.allocs_per_op, "count");
  r.add("rt.server_us", server_us, "us");
  r.add("rt.handoff_us", server_us - store.store_us, "us");
  r.add("rt.server.allocs_per_op", server_allocs, "count");
  r.add("net.loopback_rtt_us", rtt_us, "us");
  r.add("rt.tcp_unpipelined_us", e2e_us, "us");
  r.add("rt.tcp_residual_us", residual, "us");
  r.add("waterfall_gap_frac", std::abs(residual) / e2e_us, "frac");
  r.add("hash.fnv_payload_us", fnv_us, "us");
  r.add("trace_overhead_frac", overhead, "frac");
}

}  // namespace perfbench
