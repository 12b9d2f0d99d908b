#include "rt/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common/table.hpp"
#include "hash/hashes.hpp"
#include "netio/client.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tcp_server.hpp"

namespace memfss::rt {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Chaos transport tuning: idle reaping frees fds pinned by blackholed
// connections; the deadline and attempt timeout let a resilient call
// ride out a burst of faults.
constexpr std::chrono::milliseconds kChaosIdleTimeout{1000};
constexpr double kChaosCallDeadlineS = 8.0;
constexpr double kChaosAttemptTimeoutS = 0.15;

/// Request ids used for the one-time AUTH on each socket connection
/// live far above the per-op id space (op ids are stream offsets).
constexpr std::uint64_t kAuthIdBase = 0xA001000000000000ull;

bool is_default(const TenantSpec& spec) { return spec.config.name == "default"; }

std::string op_key(const TenantSpec& spec, std::size_t thread,
                   std::uint32_t key_index) {
  if (is_default(spec)) return loadgen_key(key_index);
  return spec.config.name + std::to_string(thread) + ":" +
         loadgen_key(key_index);
}

/// One op's answer as a transport reports it.
struct Answer {
  bool answered = false;
  Errc code = Errc::ok;
  std::uint64_t checksum = 0;  ///< get: the value checksum
  double retry_after_s = 0.0;
  double latency_s = 0.0;
};

/// The per-batch call: the only part of a run that differs between
/// transports. One instance per client thread.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Issue `ops` -- stream offsets first, first + 1, ..., generated as
  /// `gen[0..)` -- and fill one Answer per op, in order (an op left
  /// unanswered counts as such).
  virtual void issue(const GenOp* gen, std::size_t first,
                     std::vector<Op>& ops, std::vector<Answer>& out) = 0;
  /// The client is done: close the link's connections, as a departing
  /// client would, before the run quiesces.
  virtual void close() {}
  /// After the run, faults off and quiesced: read the link's keys back
  /// over `direct` and check them (chaos only).
  virtual Status verify(netio::NetClient& /*direct*/, std::uint64_t& /*id*/,
                        const TenantSpec&) {
    return Status();
  }
  /// Add this link's own counters to the run result.
  virtual void fold(DriverResult&) const {}
};

class InprocTransport final : public Transport {
 public:
  InprocTransport(RuntimeServer& server, const std::string& token)
      : server_(server), token_(token) {}

  void issue(const GenOp*, std::size_t, std::vector<Op>& ops,
             std::vector<Answer>& out) override {
    const auto results = server_.run_batch(token_, std::move(ops));
    for (std::size_t j = 0; j < results.size(); ++j) {
      const OpResult& r = results[j];
      out[j] = {true, r.code, r.value.checksum(), r.retry_after_s,
                r.latency_s};
    }
  }

 private:
  RuntimeServer& server_;
  const std::string& token_;
};

netio::Frame make_frame(std::uint64_t rid, const Op& op) {
  switch (op.type) {
    case Op::Type::put: {
      const auto bytes = op.value.bytes();
      return netio::NetClient::make_put(
          rid, op.tenant, op.key,
          std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    }
    case Op::Type::del:
      return netio::NetClient::make_del(rid, op.tenant, op.key);
    default:
      return netio::NetClient::make_get(rid, op.tenant, op.key);
  }
}

/// Connect to the server on loopback, bound recv at `timeout_s`, AUTH.
Status connect_and_auth(netio::NetClient& conn, std::uint16_t port,
                    const std::string& token, std::uint64_t auth_id,
                    double timeout_s) {
  Status st = conn.connect(port);
  if (st.ok()) st = conn.set_recv_timeout(timeout_s);
  if (st.ok()) st = conn.send(netio::NetClient::make_auth(auth_id, token));
  if (!st.ok()) return st;
  auto auth = conn.recv();
  if (!auth.ok() || auth.value().status != 0)
    return Status(Errc::unavailable, "auth failed");
  return Status();
}

/// Pipelined connections: each batch is encoded round-robin across the
/// connections and written with one send per connection; every id must
/// then be answered exactly once (misses are unanswered, repeats
/// duplicated). After a transport error the link is dead and answers
/// nothing more.
class SocketTransport final : public Transport {
 public:
  SocketTransport(std::uint16_t port, std::size_t conns,
                  const std::string& token)
      : conns_(std::max<std::size_t>(1, conns)) {
    for (std::size_t c = 0; c < conns_.size() && !dead_; ++c)
      if (!connect_and_auth(conns_[c], port, token, kAuthIdBase + c, 30.0).ok())
        fail();
  }

  void issue(const GenOp*, std::size_t first, std::vector<Op>& ops,
             std::vector<Answer>& out) override {
    if (dead_) return;
    const std::size_t nc = conns_.size();
    std::vector<std::vector<std::uint8_t>> wire(nc);
    // Per connection: request id -> op index in this batch.
    std::vector<std::unordered_map<std::uint64_t, std::size_t>> open(nc);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const std::uint64_t rid = first + j;
      netio::encode_frame(make_frame(rid, ops[j]), wire[j % nc]);
      open[j % nc].emplace(rid, j);
    }
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < nc && !dead_; ++c)
      if (!wire[c].empty() && !conns_[c].send_raw(wire[c]).ok()) fail();
    for (std::size_t c = 0; c < nc && !dead_; ++c) {
      while (!open[c].empty()) {
        auto got = conns_[c].recv();
        if (!got.ok()) {
          fail();
          break;
        }
        const netio::Frame& rf = got.value();
        const auto it = open[c].find(rf.request_id);
        if (it == open[c].end()) {
          ++duplicated_;
          continue;
        }
        out[it->second] = {true, static_cast<Errc>(rf.status), rf.checksum,
                           rf.retry_after_us * 1e-6, since(t0)};
        open[c].erase(it);
      }
    }
  }

  void close() override {
    for (auto& conn : conns_) conn.close();
  }

  void fold(DriverResult& r) const override {
    r.duplicated += duplicated_;
    r.transport_errors += transport_errors_;
  }

 private:
  void fail() {
    ++transport_errors_;
    dead_ = true;
  }

  std::vector<netio::NetClient> conns_;
  bool dead_ = false;
  std::uint64_t duplicated_ = 0, transport_errors_ = 0;
};

/// What the store may hold for one key, as far as its owning thread can
/// prove. Acked ops collapse the state exactly; ops that died after
/// their bytes (possibly partially) hit the wire add possibilities that
/// stay until the next ack on the key.
struct KeyState {
  bool maybe_absent = true;              ///< "key absent" is possible
  std::set<std::uint64_t> maybe_values;  ///< checksums possibly resident
  std::set<std::uint64_t> ever;          ///< every checksum ever sent
};

/// One resilient call per op through the chaos proxy, each outcome
/// folded into the per-key possibility model.
///
/// Soundness: the thread owns a disjoint key space (a named tenant's
/// keys carry the thread index), so its view of a key is sequential;
/// same-key ops serialize through the shard-pinned worker FIFO, so an
/// abandoned attempt can never re-apply after a later acked op on the
/// same key.
class ChaosTransport final : public Transport {
 public:
  ChaosTransport(const DriverOptions& opt, std::uint16_t proxy_port,
                 std::size_t thread)
      : thread_(thread), keys_(opt.key_space), rc_([&] {
          netio::ResilientOptions ropt;
          ropt.port = proxy_port;
          ropt.auth_token = opt.auth_token;
          ropt.seed = opt.seed * 7919 + thread + 1;
          ropt.attempt_recv_timeout_s = kChaosAttemptTimeoutS;
          ropt.default_deadline_s = kChaosCallDeadlineS;
          ropt.backoff_max_s = 0.05;
          ropt.breaker.cooldown = 0.05;
          return ropt;
        }()) {}

  void issue(const GenOp* gen, std::size_t first, std::vector<Op>& ops,
             std::vector<Answer>& out) override {
    for (std::size_t j = 0; j < ops.size(); ++j)
      out[j] = call(gen[j], first + j, ops[j]);
  }

  Status verify(netio::NetClient& direct, std::uint64_t& vid,
                const TenantSpec& spec) override {
    for (std::uint32_t k = 0; k < keys_.size(); ++k) {
      const KeyState& ks = keys_[k];
      const Status st = direct.send(
          netio::NetClient::make_get(++vid, 0, op_key(spec, thread_, k)));
      if (!st.ok()) return st;
      auto rf = direct.recv();
      if (!rf.ok()) return Status(rf.error());
      const netio::Frame& f = rf.value();
      const Errc code = static_cast<Errc>(f.status);
      if (read_allowed(ks, code, f.checksum)) {
        // Allowed by the model; also check the bytes themselves.
        if (code == Errc::ok && f.value.size() == f.value_size &&
            hash::crc32c(f.value.data(), f.value.size()) != f.checksum)
          ++viol_;
      } else if (code != Errc::ok && code != Errc::not_found) {
        ++viol_;
      }
    }
    return Status();
  }

  void close() override { rc_.disconnect(); }

  void fold(DriverResult& r) const override {
    r.fatal_calls += fatal_;
    r.lost_acks += lost_;
    r.duplicated_acks += dup_;
    r.consistency_violations += viol_;
    const netio::ResilientStats& s = rc_.stats();
    netio::ResilientStats& t = r.client;
    t.attempts += s.attempts;
    t.retries += s.retries;
    t.reconnects += s.reconnects;
    t.connect_failures += s.connect_failures;
    t.timeouts += s.timeouts;
    t.corrupt_frames += s.corrupt_frames;
    t.protocol_errors += s.protocol_errors;
    t.mismatched_ids += s.mismatched_ids;
    t.value_checksum_failures += s.value_checksum_failures;
    t.overloaded_waits += s.overloaded_waits;
    t.breaker_opens += s.breaker_opens;
    t.breaker_rejections += s.breaker_rejections;
  }

 private:
  /// Whether the model allows reading `code` (and, for ok, a value with
  /// checksum `sum`) from the key; a read it does not allow is counted
  /// as lost, duplicated or a violation. Other codes are not reads.
  bool read_allowed(const KeyState& ks, Errc code, std::uint64_t sum) {
    if (code == Errc::ok) {
      if (ks.maybe_values.count(sum)) return true;
      // A superseded attempt re-landed, or bytes we never sent.
      ++(ks.ever.count(sum) ? dup_ : viol_);
      return false;
    }
    if (code != Errc::not_found) return false;
    if (!ks.maybe_absent) ++lost_;  // an acked value vanished
    return ks.maybe_absent;
  }

  Answer call(const GenOp& g, std::size_t i, const Op& op) {
    const std::uint64_t rid = (static_cast<std::uint64_t>(thread_ + 1) << 40) |
                              static_cast<std::uint64_t>(i);
    KeyState& ks = keys_[g.key_index];
    const std::uint64_t put_sum =
        g.type == Op::Type::put ? op.value.checksum() : 0;
    const auto t0 = Clock::now();
    // Every op here is idempotent: PUT re-sends the identical
    // deterministic bytes under the same id, GET/DEL converge.
    const netio::CallOutcome out =
        rc_.call(make_frame(rid, op), /*idempotent=*/true);
    const double latency_s = since(t0);

    if (g.type == Op::Type::put && out.sends > 0) ks.ever.insert(put_sum);
    if (!out.answered) {
      if (out.code == Errc::fatal) ++fatal_;
      // The op may have been applied anyway; widen the possibilities.
      if (out.sends > 0) {
        if (g.type == Op::Type::put) ks.maybe_values.insert(put_sum);
        if (g.type == Op::Type::del) ks.maybe_absent = true;
      }
      return {};
    }

    const Errc code = static_cast<Errc>(out.code);
    switch (g.type) {
      case Op::Type::put:
        if (code == Errc::ok) {
          ks.maybe_absent = false;
          ks.maybe_values.clear();
          ks.maybe_values.insert(put_sum);
        } else if (out.sends > 0) {
          // Answered but not applied (oom, ...); an earlier lost
          // attempt might still have landed.
          ks.maybe_values.insert(put_sum);
        }
        break;
      case Op::Type::del:
        if (code == Errc::ok) {
          if (ks.maybe_values.empty()) ++viol_;  // deleted a value nobody put
        } else if (code == Errc::not_found) {
          // DEL is idempotent in effect but not in answer: when the
          // request hit the wire more than once, an earlier attempt may
          // have deleted the key and lost its response, and the acked
          // retry then legitimately answers not_found for a key the
          // model knew present. Only a single-transmission not_found
          // proves the key was absent before the call.
          if (!ks.maybe_absent && out.sends <= 1) ++viol_;
        }
        if (code == Errc::ok || code == Errc::not_found) {
          ks.maybe_absent = true;
          ks.maybe_values.clear();
        } else if (out.sends > 0) {
          ks.maybe_absent = true;
        }
        break;
      case Op::Type::get:
        if (read_allowed(ks, code, out.response.checksum)) {
          // Collapse: the read shows the state right now.
          ks.maybe_absent = code != Errc::ok;
          ks.maybe_values.clear();
          if (code == Errc::ok) ks.maybe_values.insert(out.response.checksum);
        }
        break;
      default:
        break;
    }
    return {true, code, out.response.checksum,
            out.response.retry_after_us * 1e-6, latency_s};
  }

  std::size_t thread_;
  std::vector<KeyState> keys_;
  netio::ResilientClient rc_;
  std::uint64_t fatal_ = 0, lost_ = 0, dup_ = 0, viol_ = 0;
};

/// One client thread: its stream, its link, and what it saw.
struct Client {
  std::size_t tenant = 0;
  std::size_t thread = 0;
  std::uint32_t tid = 0;  ///< TenantRegistry slot
  std::vector<GenOp> stream;
  std::unique_ptr<Transport> link;
  TenantResult tally;
  obs::Histogram latency;  ///< completed ops only
  std::uint64_t digest = hash::fnv1a_seed();
};

void tally_answer(TenantResult& t, Op::Type type, const Answer& a) {
  switch (a.code) {
    case Errc::ok:
      if (type == Op::Type::put) ++t.puts;
      if (type == Op::Type::del) ++t.dels;
      if (type == Op::Type::get) ++t.gets;
      break;
    case Errc::not_found: ++t.not_found; break;
    case Errc::rejected: ++t.rejected; break;
    case Errc::overloaded:
      ++t.overloaded;
      if (a.retry_after_s > 0.0) ++t.retry_after_hints;
      break;
    default: ++t.errors; break;
  }
}

void add_counts(TenantResult& to, const TenantResult& from) {
  to.submitted += from.submitted;
  to.puts += from.puts;
  to.gets += from.gets;
  to.dels += from.dels;
  to.not_found += from.not_found;
  to.rejected += from.rejected;
  to.overloaded += from.overloaded;
  to.retry_after_hints += from.retry_after_hints;
  to.errors += from.errors;
  to.unanswered += from.unanswered;
}

/// The closed loop, identical for every transport: build a batch of the
/// stream, issue it, fold and count every answer, pace.
void client_loop(const DriverOptions& opt, Client& c,
                 const std::atomic<bool>& normals_done) {
  const TenantSpec& spec = opt.tenants[c.tenant];
  const std::size_t batch = std::max<std::size_t>(1, spec.batch);
  std::vector<Op> ops;
  std::vector<Answer> answers;
  std::size_t i = 0;
  while (true) {
    if (i >= c.stream.size()) {
      if (!spec.abusive) break;
      if (normals_done.load(std::memory_order_acquire)) break;
      i = 0;  // abuser: cycle the stream until the others finish
    }
    const std::size_t n = std::min(batch, c.stream.size() - i);
    ops.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const GenOp& g = c.stream[i + j];
      Op op;
      op.type = g.type;
      op.key = op_key(spec, c.thread, g.key_index);
      op.tenant = c.tid;
      if (g.type == Op::Type::put)
        op.value = stream_value(opt.value_size, g.key_index, i + j);
      ops.push_back(std::move(op));
    }
    answers.assign(n, Answer{});
    c.link->issue(&c.stream[i], i, ops, answers);

    double worst_hint_s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const GenOp& g = c.stream[i + j];
      const Answer& a = answers[j];
      ++c.tally.submitted;
      if (!a.answered) {
        ++c.tally.unanswered;
        continue;
      }
      c.digest = fold_result(c.digest, g, a.code, a.checksum);
      tally_answer(c.tally, g.type, a);
      if (a.code == Errc::overloaded)
        worst_hint_s = std::max(worst_hint_s, a.retry_after_s);
      else if (a.code != Errc::rejected)
        c.latency.add(a.latency_s);
    }
    i += n;
    // Well-behaved tenants pace themselves and honor retry-after hints
    // (capped so a pathological hint cannot wedge a client); abusers do
    // neither -- that is what makes them abusive.
    double sleep_s = spec.pace_us * 1e-6;
    if (!spec.abusive) sleep_s += std::min(worst_hint_s, 0.05);
    if (sleep_s > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
  }
  c.link->close();
}

}  // namespace

DriverResult run_driver(const DriverOptions& opt) {
  DriverResult res;
  res.opt = opt;
  const bool wire = opt.transport != TransportKind::inproc;
  const bool chaos = opt.transport == TransportKind::chaos;

  TenantRegistry registry(opt.tenants.size() + 1);
  ShardedStore store({opt.shards, opt.capacity, opt.auth_token, &registry});
  RuntimeServer::Options sopt;
  sopt.threads = opt.server_threads;
  sopt.queue_capacity = opt.queue_capacity;
  sopt.service_time = std::chrono::microseconds(opt.service_time_us);
  sopt.tenants = &registry;
  RuntimeServer server(store, sopt);

  std::vector<std::uint32_t> tids;
  for (const TenantSpec& spec : opt.tenants) {
    auto reg = is_default(spec) ? Result<std::uint32_t>(0u)
                                : registry.register_tenant(spec.config);
    tids.push_back(reg.ok() ? reg.value() : 0);
  }

  std::unique_ptr<TcpServer> tcp;
  std::unique_ptr<netio::ChaosProxy> proxy;
  if (wire) {
    TcpServer::Options topt;
    topt.reactors = std::max<std::size_t>(1, opt.reactors);
    if (chaos) topt.idle_timeout = kChaosIdleTimeout;
    tcp = std::make_unique<TcpServer>(server, topt);
  }
  const netio::ChaosPlan plan = netio::ChaosPlan::faulty(opt.seed);
  if (chaos) {
    proxy = std::make_unique<netio::ChaosProxy>(tcp->port(), plan);
    if (!proxy->ok()) throw std::runtime_error("chaos proxy failed to start");
    proxy->set_faults_enabled(opt.faults);
  }

  // Streams and links are set up before any client starts, so neither
  // pollutes the measured window.
  std::vector<Client> clients;
  for (std::size_t ti = 0; ti < opt.tenants.size(); ++ti) {
    const TenantSpec& spec = opt.tenants[ti];
    StreamOptions so{opt.seed,         spec.ops_per_thread,
                     opt.get_fraction, opt.del_fraction,
                     opt.zipf_theta,   opt.key_space};
    if (opt.tenants.size() > 1)
      so.seed ^= 0xa24baed4963ee407ull * (static_cast<std::uint64_t>(ti) + 1);
    for (std::size_t t = 0; t < spec.client_threads; ++t) {
      Client c;
      c.tenant = ti;
      c.thread = t;
      c.tid = tids[ti];
      c.stream = generate_stream(so, t);
      switch (opt.transport) {
        case TransportKind::inproc:
          c.link = std::make_unique<InprocTransport>(server, opt.auth_token);
          break;
        case TransportKind::socket:
          c.link = std::make_unique<SocketTransport>(
              tcp->port(), opt.connections_per_thread, opt.auth_token);
          break;
        case TransportKind::chaos:
          c.link = std::make_unique<ChaosTransport>(opt, proxy->port(), t);
          break;
      }
      clients.push_back(std::move(c));
    }
  }

  std::mutex acc_mu;
  auto acc_fail = [&](const std::string& msg) {
    std::lock_guard lk(acc_mu);
    if (res.accounting_ok) res.accounting_msg = msg;
    res.accounting_ok = false;
  };

  // Continuous invariants, each a single atomic read against a
  // constant, so the check is sound mid-race: the aggregate cap and
  // every tenant's quota. (Cross-atomic equality -- tenant bytes
  // summing to the aggregate -- is only defined at quiescence and is
  // checked after the clients join.)
  std::atomic<bool> all_done{false};
  std::thread sampler([&] {
    while (!all_done.load(std::memory_order_acquire)) {
      if (store.used() > store.capacity())
        acc_fail("used() exceeded capacity() mid-run");
      for (std::size_t i = 0; i < tids.size(); ++i) {
        const Bytes quota = registry.memory_quota(tids[i]);
        if (quota != 0 && registry.memory_used(tids[i]) > quota)
          acc_fail("tenant " + opt.tenants[i].config.name + " exceeded quota");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Abusive tenants cycle their stream until every normal tenant is
  // done.
  std::atomic<bool> normals_done{false};
  const auto t0 = Clock::now();
  std::vector<std::thread> normal_threads, abuser_threads;
  for (Client& c : clients) {
    auto& group = opt.tenants[c.tenant].abusive ? abuser_threads
                                                : normal_threads;
    group.emplace_back(
        [&opt, &c, &normals_done] { client_loop(opt, c, normals_done); });
  }
  for (auto& th : normal_threads) th.join();
  normals_done.store(true, std::memory_order_release);
  for (auto& th : abuser_threads) th.join();
  res.wall_s = since(t0);
  all_done.store(true, std::memory_order_release);
  sampler.join();

  if (chaos) {
    // Quiesce: faults off, let delayed pieces drain, then read every
    // key back over a clean direct connection.
    proxy->set_faults_enabled(false);
    const double settle_s = 0.05 + 3.0 * plan.delay_max_us / 1e6;
    std::this_thread::sleep_for(std::chrono::duration<double>(settle_s));
    netio::NetClient direct;
    std::uint64_t vid = 1ull << 50;
    Status st = connect_and_auth(direct, tcp->port(), opt.auth_token, ++vid, 2.0);
    for (const Client& c : clients) {
      if (!st.ok()) break;
      st = c.link->verify(direct, vid, opt.tenants[c.tenant]);
    }
    if (!st.ok()) {
      res.verify_error = "verification read failed: " + st.error().to_string();
      ++res.consistency_violations;
    }
  }

  // Quiescent accounting: the shard accounting, the recomputed shard
  // usage, the aggregate and the per-tenant counters must all agree
  // exactly.
  {
    const Bytes used = store.used();
    Bytes sum_acc = 0, sum_rec = 0;
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
      sum_acc += store.shard_used(s);
      sum_rec += store.shard_recomputed_used(s);
    }
    if (used != sum_acc || used != sum_rec || used > store.capacity())
      acc_fail("quiesce: used=" + std::to_string(used) +
               " shard_sum=" + std::to_string(sum_acc) +
               " recomputed=" + std::to_string(sum_rec) +
               " capacity=" + std::to_string(store.capacity()));
    if (registry.total_resident() != used)
      acc_fail("quiesce: per-tenant bytes do not sum to aggregate");
  }

  if (proxy) {
    proxy->shutdown();
    res.chaos = proxy->stats();
  }
  if (tcp) {
    tcp->shutdown();
    const ServingMetrics& m = server.metrics();
    res.bytes_in = m.counter_value("rt.net.bytes_in");
    res.bytes_out = m.counter_value("rt.net.bytes_out");
    res.srv_resets = m.counter_value("rt.net.resets");
    res.srv_idle_reaps = m.counter_value("rt.net.idle_reaps");
  }

  // Fold clients into per-tenant rows (spec order) and the run total.
  const std::size_t nt = opt.tenants.size();
  res.tenants.resize(nt);
  auto row = [&](std::size_t i) -> TenantResult& {
    return i < nt ? res.tenants[i] : res.total;
  };
  std::vector<obs::Histogram> lat(nt + 1);  // [nt]: the run total
  std::vector<std::uint64_t> digests;
  for (const Client& c : clients) {
    for (const std::size_t i : {c.tenant, nt}) {
      add_counts(row(i), c.tally);
      lat[i].merge(c.latency);
    }
    digests.push_back(c.digest);
    c.link->fold(res);
  }
  for (std::size_t i = 0; i <= nt; ++i) {
    TenantResult& tr = row(i);
    tr.name = i < nt ? opt.tenants[i].config.name : "all";
    tr.latency = lat[i].summary();
    tr.ops_per_sec = res.wall_s > 0.0
                         ? static_cast<double>(tr.completed()) / res.wall_s
                         : 0.0;
  }
  res.result_digest = combine_digests(digests);
  return res;
}

// --- QoS isolation scenario ------------------------------------------

DriverOptions qos_options(std::size_t small_tenants, std::uint64_t seed) {
  DriverOptions opt;
  opt.seed = seed;
  opt.server_threads = 4;
  opt.shards = 16;
  opt.queue_capacity = 256;
  opt.service_time_us = 200;
  opt.value_size = 1024;
  opt.get_fraction = 0.5;
  opt.del_fraction = 0.05;
  opt.key_space = 512;
  opt.capacity = 256 * units::MiB;
  opt.tenants.clear();
  for (std::size_t i = 0; i < small_tenants; ++i) {
    TenantSpec s;
    s.config.name = "small" + std::to_string(i);
    s.config.priority = 5;
    s.config.weight = 2;
    s.config.ops_per_s = 4000;  // never binds at the paced offered rate
    s.config.memory_quota = 16 * units::MiB;
    s.client_threads = 1;
    s.ops_per_thread = 600;
    s.batch = 2;
    s.pace_us = 1500;  // ~1k ops/s offered, well under quota
    opt.tenants.push_back(std::move(s));
  }
  TenantSpec abuser;
  abuser.config.name = "abuser";
  abuser.config.priority = 0;  // best-effort: first to pressure-shed
  abuser.config.weight = 1;
  abuser.config.ops_per_s = 400;  // offered load lands >= 10x past this
  abuser.config.ops_burst = 50;
  abuser.config.memory_quota = 4 * units::MiB;
  abuser.client_threads = 2;
  abuser.ops_per_thread = 4000;
  abuser.batch = 32;
  abuser.pace_us = 200;  // bounds the spin; still wildly over quota
  abuser.abusive = true;
  opt.tenants.push_back(std::move(abuser));
  return opt;
}

QosScenarioResult run_qos_adversarial(const DriverOptions& opt) {
  QosScenarioResult out;
  DriverOptions baseline = opt;
  baseline.tenants.clear();
  for (const auto& spec : opt.tenants)
    if (!spec.abusive) baseline.tenants.push_back(spec);
  out.baseline = run_driver(baseline);
  out.adversarial = run_driver(opt);

  // Isolation: each normal tenant's p99 against its own baseline.
  for (auto& adv : out.adversarial.tenants) {
    for (const auto& base : out.baseline.tenants) {
      if (base.name != adv.name || base.latency.p99 <= 0.0) continue;
      adv.isolation_p99 = adv.latency.p99 / base.latency.p99;
      if (adv.latency.count > 0)
        out.worst_isolation = std::max(out.worst_isolation, *adv.isolation_p99);
    }
  }
  // Abusers must be shed by policy (overloaded + hint), not by
  // queue-full rejections spilling out of their lane.
  bool any_abuser = false, shed_ok = true;
  for (std::size_t ti = 0; ti < opt.tenants.size(); ++ti) {
    if (!opt.tenants[ti].abusive) continue;
    any_abuser = true;
    const TenantResult& tr = out.adversarial.tenants[ti];
    if (tr.overloaded == 0 || tr.overloaded < tr.rejected) shed_ok = false;
  }
  out.abuser_shed_via_overload = any_abuser && shed_ok;
  return out;
}

// --- Network chaos soak ----------------------------------------------

DriverOptions chaos_options(std::uint64_t seed, bool faults) {
  DriverOptions opt;
  opt.seed = seed;
  opt.transport = TransportKind::chaos;
  opt.faults = faults;
  TenantSpec& c = opt.tenants.front();
  c.config.name = "c";
  c.client_threads = 3;
  c.ops_per_thread = 900;
  c.batch = 1;
  opt.key_space = 96;
  opt.value_size = 256;
  opt.get_fraction = 0.5;
  opt.del_fraction = 0.1;
  opt.server_threads = 2;
  opt.shards = 8;
  opt.reactors = 2;
  opt.capacity = 64 * units::MiB;
  opt.queue_capacity = 1024;
  return opt;
}

std::string chaos_verdict(const DriverOptions& opt, DriverResult& r) {
  if (!opt.faults) {
    // The oracle: the same streams in process with one worker. Valid
    // because key spaces are disjoint per thread (interleaving does not
    // matter) and capacity is ample (no cross-thread eviction coupling).
    DriverOptions oracle = opt;
    oracle.transport = TransportKind::inproc;
    oracle.server_threads = 1;
    r.oracle_digest = run_driver(oracle).result_digest;
  }
  std::uint64_t offered = 0;
  for (const TenantSpec& t : opt.tenants)
    offered += static_cast<std::uint64_t>(t.client_threads) * t.ops_per_thread;
  const TenantResult& t = r.total;
  std::string why;
  if (t.submitted != offered)
    why = "not every op ran to a terminal outcome";
  else if (t.unanswered == t.submitted)
    why = "no op was ever acknowledged";
  else if (r.lost_acks)
    why = "lost acknowledged ops";
  else if (r.duplicated_acks)
    why = "superseded writes re-landed";
  else if (r.consistency_violations)
    why = r.verify_error.empty() ? "reads outside the possibility model"
                                 : r.verify_error;
  else if (!r.accounting_ok)
    why = "accounting broken: " + r.accounting_msg;
  else if (!opt.faults && t.unanswered)
    why = "clean arm had failed calls";
  else if (r.oracle_digest && *r.oracle_digest != r.result_digest)
    why = "clean arm digest != in-process oracle";
  r.passed = why.empty();
  return why;
}

// --- CSV -----------------------------------------------------------------

namespace {

/// Every CSV column of tenant row `tenant` of `r`, as (name, cell):
/// the one definition of the schema, so header and rows cannot drift.
std::vector<std::pair<const char*, std::string>> csv_cells(
    std::string_view scenario, const DriverResult& r, std::size_t tenant) {
  using U = std::initializer_list<std::pair<const char*, std::uint64_t>>;
  using D = std::initializer_list<std::pair<const char*, double>>;
  const DriverOptions& o = r.opt;
  const TenantResult& t = r.tenants[tenant];
  const TenantSpec& spec = o.tenants[tenant];
  const bool wire = o.transport != TransportKind::inproc;
  const bool socket = o.transport == TransportKind::socket;
  const bool chaos = o.transport == TransportKind::chaos;
  const char* transports[] = {"inproc", "socket", "chaos"};
  std::vector<std::pair<const char*, std::string>> cells = {
      {"scenario", std::string(scenario)},
      {"transport", transports[static_cast<int>(o.transport)]},
      {"tenant", t.name}};
  // A column the run does not produce stays empty.
  auto add = [&](bool on, U cols) {
    for (const auto& [name, v] : cols)
      cells.emplace_back(name, on ? std::to_string(v) : std::string());
  };
  auto add_num = [&](bool on, D cols) {
    for (const auto& [name, v] : cols) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      cells.emplace_back(name, on ? buf : "");
    }
  };
  const netio::ResilientStats& c = r.client;
  const netio::ChaosStats& x = r.chaos;
  add(true, U{{"priority", spec.config.priority},
              {"weight", spec.config.weight},
              {"seed", o.seed},
              {"client_threads", spec.client_threads}});
  add(socket, U{{"connections_per_thread", o.connections_per_thread}});
  add(wire, U{{"reactors", o.reactors}});
  add(true, U{{"server_threads", o.server_threads}, {"shards", o.shards},
              {"ops_per_thread", spec.ops_per_thread}, {"batch", spec.batch},
              {"value_size", o.value_size}});
  add_num(true, D{{"get_fraction", o.get_fraction},
                  {"del_fraction", o.del_fraction},
                  {"zipf_theta", o.zipf_theta}});
  add(true, U{{"service_time_us", o.service_time_us}});
  add_num(true, D{{"wall_s", r.wall_s}, {"ops_per_sec", t.ops_per_sec}});
  add(true, U{{"submitted", t.submitted}, {"puts", t.puts}, {"gets", t.gets},
              {"dels", t.dels}, {"not_found", t.not_found},
              {"rejected", t.rejected}, {"overloaded", t.overloaded},
              {"retry_after_hints", t.retry_after_hints},
              {"errors", t.errors}, {"unanswered", t.unanswered}});
  add_num(true, D{{"lat_p50_s", t.latency.p50},
                  {"lat_p95_s", t.latency.p95},
                  {"lat_p99_s", t.latency.p99}});
  add(true, U{{"result_digest", r.result_digest},
              {"accounting_ok", r.accounting_ok}});
  add(socket, U{{"duplicated", r.duplicated},
                {"transport_errors", r.transport_errors}});
  add(wire, U{{"bytes_in", r.bytes_in}, {"bytes_out", r.bytes_out}});
  add(chaos,
      U{{"faults", o.faults}, {"fatal_calls", r.fatal_calls},
        {"attempts", c.attempts}, {"retries", c.retries},
        {"reconnects", c.reconnects}, {"timeouts", c.timeouts},
        {"corrupt_frames", c.corrupt_frames},
        {"overloaded_waits", c.overloaded_waits},
        {"breaker_opens", c.breaker_opens},
        {"resets_injected", x.resets_injected}, {"blackholed", x.blackholed},
        {"chunks_corrupted", x.chunks_corrupted},
        {"chunks_torn", x.chunks_torn}, {"chunks_delayed", x.chunks_delayed},
        {"srv_resets", r.srv_resets}, {"srv_idle_reaps", r.srv_idle_reaps},
        {"lost_acks", r.lost_acks}, {"duplicated_acks", r.duplicated_acks},
        {"consistency_violations", r.consistency_violations}});
  add(r.oracle_digest.has_value(),
      U{{"digest_ok", r.oracle_digest == r.result_digest}});
  add_num(t.isolation_p99.has_value(),
          D{{"isolation_p99", t.isolation_p99.value_or(0.0)}});
  add(r.passed.has_value(), U{{"passed", r.passed.value_or(false)}});
  return cells;
}

std::string join(const std::vector<std::pair<const char*, std::string>>& cells,
                 bool names) {
  std::vector<std::string> fields;
  for (const auto& [name, cell] : cells) fields.push_back(names ? name : cell);
  return csv_row(fields);
}

}  // namespace

std::string driver_csv_header() {
  DriverResult any;
  any.tenants.resize(1);
  return join(csv_cells("", any, 0), true);
}

std::string driver_csv_row(std::string_view scenario, const DriverResult& r,
                           std::size_t tenant) {
  return join(csv_cells(scenario, r, tenant), false);
}

}  // namespace memfss::rt
