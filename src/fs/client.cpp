#include "fs/client.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/log.hpp"
#include "erasure/reed_solomon.hpp"
#include "fs/filesystem.hpp"
#include "hash/hashes.hpp"
#include "sim/sync.hpp"

namespace memfss::fs {

namespace {

/// In-flight stripes per file read or write.
constexpr std::size_t kStripeWindow = 4;

/// Content tag of a ghost stripe: deterministic in (stripe-key digest,
/// file tag) so a parity-reconstructed ghost matches the original checksum.
std::uint64_t ghost_tag(std::uint64_t key_digest, std::uint64_t file_tag) {
  return hash::mix64(key_digest, file_tag);
}

/// Background stripe migration (lazy relocation / dedup is free: drain on
/// an already-moved key is a no-op not_found).
sim::Task<> relocate(FileSystem* fs, std::string key, NodeId src,
                     NodeId dst) {
  auto st = co_await fs->server(src).migrate_key(fs->token(), key,
                                                 fs->server(dst));
  if (st.ok()) ++fs->counters().lazy_relocations;
}

}  // namespace

void Client::record_stripe_op(const char* hist, const char* span, SimTime t0,
                              const std::string& key) {
  auto& obs = fs_->cluster().obs();
  obs.metrics.histogram(hist).add(fs_->cluster().sim().now() - t0);
  if (obs.tracer.enabled(obs::Component::fs))
    obs.tracer.span(obs::Component::fs, node_, span, t0, key);
}

// --- namespace forwards -----------------------------------------------------

sim::Task<Status> Client::mkdirs(std::string path) {
  co_return co_await fs_->meta().mkdirs(node_, std::move(path));
}

sim::Task<Result<Stat>> Client::stat(std::string path) {
  co_return co_await fs_->meta().stat(node_, std::move(path));
}

sim::Task<Result<std::vector<std::string>>> Client::readdir(
    std::string path) {
  co_return co_await fs_->meta().readdir(node_, std::move(path));
}

sim::Task<Status> Client::rename(std::string from, std::string to) {
  co_return co_await fs_->meta().rename(node_, std::move(from),
                                        std::move(to));
}

// --- write path --------------------------------------------------------------

sim::Task<Status> Client::write_file(std::string path, Bytes size,
                                     std::uint64_t tag,
                                     double extra_requests_per_mib) {
  co_return co_await write_impl(std::move(path), size, nullptr, tag,
                                extra_requests_per_mib);
}

sim::Task<Status> Client::write_file_bytes(std::string path,
                                           std::vector<std::uint8_t> data) {
  co_return co_await write_impl(std::move(path), data.size(), &data, 0, 0.0);
}

namespace {
/// Window-guarded wrapper so at most `write_window` stripes are in flight
/// per file operation (models the FUSE layer's request pipelining).
sim::Task<> guarded(sim::Semaphore& sem, sim::Task<> inner) {
  co_await sem.acquire();
  co_await std::move(inner);
  sem.release();
}
}  // namespace

sim::Task<Status> Client::write_impl(std::string path, Bytes size,
                                     const std::vector<std::uint8_t>* data,
                                     std::uint64_t tag,
                                     double extra_requests_per_mib) {
  const auto& cfg = fs_->config();
  FileAttr attr;
  attr.size = 0;
  attr.stripe_size = cfg.stripe_size;
  attr.epoch = fs_->current_epoch();
  attr.redundancy = cfg.redundancy;
  attr.copies = cfg.copies;
  attr.ec_k = cfg.ec_k;
  attr.ec_m = cfg.ec_m;

  auto created = co_await fs_->meta().create(node_, path, attr);
  if (!created.ok()) co_return created.error();
  const InodeId ino = created.value();

  const ClassHrwPolicy policy = fs_->policy_for_epoch(attr.epoch);
  const std::size_t n_stripes = Namespace::stripe_count(size, attr.stripe_size);

  auto& sim = fs_->cluster().sim();
  OpState state;
  state.extra_requests_per_mib = extra_requests_per_mib;
  sim::Semaphore window(sim, kStripeWindow);
  std::vector<sim::Task<>> tasks;
  tasks.reserve(n_stripes);
  for (std::size_t i = 0; i < n_stripes; ++i) {
    const Bytes off = static_cast<Bytes>(i) * attr.stripe_size;
    const Bytes len = std::min<Bytes>(attr.stripe_size, size - off);
    std::string key = Namespace::stripe_key(ino, i);
    const std::uint64_t digest = Namespace::stripe_key_digest(ino, i);
    kvstore::Blob blob;
    if (data) {
      blob = kvstore::Blob::materialized(std::vector<std::uint8_t>(
          data->begin() + static_cast<std::ptrdiff_t>(off),
          data->begin() + static_cast<std::ptrdiff_t>(off + len)));
    } else {
      blob = kvstore::Blob::ghost(len, ghost_tag(digest, tag));
    }
    tasks.push_back(guarded(window, write_stripe(policy, attr, std::move(key),
                                                 digest, std::move(blob),
                                                 state)));
  }
  co_await sim::when_all(sim, std::move(tasks));
  if (!state.status.ok()) co_return state.status;

  if (auto st = co_await fs_->meta().set_size(node_, ino, size); !st.ok())
    co_return st;
  fs_->counters().bytes_written += size;
  co_return Status{};
}

sim::Task<> Client::put_stripe_copy(const ClassHrwPolicy& policy,
                                    const FileAttr& attr,
                                    std::uint64_t base_digest,
                                    std::string store_key, std::size_t idx,
                                    std::shared_ptr<kvstore::Blob> blob,
                                    OpState& state) {
  const auto& cfg = fs_->config();
  auto& sim = fs_->cluster().sim();
  Status last{Errc::unavailable, "no servers: " + store_key};
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (attempt > 0) {
      ++fs_->counters().write_retries;
      fs_->cluster().obs().metrics.counter("fs.write.retries").inc();
      co_await sim.delay(backoff_delay(kRetryBackoff, kRetryBackoffMax,
                                       attempt - 1,
                                       backoff_draw(store_key, attempt - 1)));
    }
    // Fresh placement every attempt: a crash between attempts moved the
    // target (membership removal reshuffles HRW).
    const auto homes = home_nodes(policy, attr, base_digest);
    if (homes.empty()) continue;
    NodeId target = homes[idx % homes.size()];
    if (!fs_->has_server(target)) continue;
    if (!fs_->health().allow(target, sim.now())) {
      // Breaker open on the placed target: steer this copy to the next
      // allowed node in the probe order instead of burning the attempt.
      // Replicas never reroute onto another replica's home -- two copies
      // behind one NIC is worse than a delayed write. Reads find the
      // misplaced copy by probing the full order; lazy relocation moves
      // it home once the breaker closes.
      const bool replica = attr.redundancy != RedundancyMode::erasure;
      const auto order = policy.probe_order(base_digest);
      NodeId alt = kInvalidNode;
      for (NodeId cand : order) {
        if (cand == target || !fs_->has_server(cand)) continue;
        if (replica && std::ranges::count(homes, cand)) continue;
        if (fs_->health().allow(cand, sim.now())) {
          alt = cand;
          break;
        }
      }
      if (alt == kInvalidNode) {
        ++fs_->counters().breaker_rejections;
        last = {Errc::rejected, "all breakers open: " + store_key};
        continue;
      }
      ++fs_->counters().breaker_reroutes;
      target = alt;
    }
    auto& srv = fs_->server(target);
    Status st{};
    if (cfg.rpc_timeout > 0) {
      auto r = co_await sim::with_timeout(
          sim, srv.put(node_, fs_->token(), store_key, *blob),
          cfg.rpc_timeout);
      if (!r) {  // deadline missed: dead, stalled, or just slow -- walk away
        ++fs_->counters().rpc_timeouts;
        fs_->report_suspect(target);
        fs_->health().record(target, Errc::timeout, sim.now());
        last = {Errc::timeout, "rpc timeout: " + store_key};
        continue;
      }
      st = *r;
    } else {
      st = co_await srv.put(node_, fs_->token(), store_key, *blob);
    }
    fs_->health().record(target, st.ok() ? Errc::ok : st.code(), sim.now());
    if (st.ok()) co_return;
    last = st;
    if (!errc_connectivity(st.code())) break;  // permission etc.: do not spin
    fs_->report_suspect(target);
  }
  state.status = last;
}

sim::Task<> Client::write_stripe(const ClassHrwPolicy& policy,
                                 const FileAttr& attr, std::string key,
                                 std::uint64_t key_digest, kvstore::Blob blob,
                                 OpState& state) {
  const std::size_t copies = replica_count(attr);
  auto& sim = fs_->cluster().sim();
  const SimTime t0 = sim.now();
  const double burst = state.extra_requests_per_mib *
                       static_cast<double>(blob.size()) /
                       static_cast<double>(units::MiB);
  if (attr.redundancy == RedundancyMode::erasure) {
    co_await write_shards(policy, attr, key, key_digest, std::move(blob),
                          state);
  } else if (copies == 1) {
    co_await put_stripe_copy(policy, attr, key_digest, key, 0,
                             std::make_shared<kvstore::Blob>(std::move(blob)),
                             state);
    if (burst > 0) {
      const auto targets = policy.place(key_digest, 1);
      if (!targets.empty() && fs_->has_server(targets[0]))
        co_await fs_->server(targets[0]).request_burst(node_, burst);
    }
  } else {
    // Replicas stream in parallel (client NIC is the shared bottleneck).
    auto shared = std::make_shared<kvstore::Blob>(std::move(blob));
    std::vector<sim::Task<>> puts;
    puts.reserve(copies);
    for (std::size_t c = 0; c < copies; ++c)
      puts.push_back(put_stripe_copy(policy, attr, key_digest, key, c,
                                     shared, state));
    co_await sim::when_all(sim, std::move(puts));
  }
  ++fs_->counters().stripes_written;
  record_stripe_op("fs.write_stripe.latency", "fs.write_stripe", t0, key);
}

sim::Task<> Client::write_shards(const ClassHrwPolicy& policy,
                                 const FileAttr& attr, const std::string& key,
                                 std::uint64_t key_digest, kvstore::Blob blob,
                                 OpState& state) {
  const std::size_t k = attr.ec_k, m = attr.ec_m;
  assert(k >= 1);
  if (policy.probe_order(key_digest).empty()) {
    state.status = Status{Errc::unavailable, "no servers"};
    co_return;
  }

  // Encoding cost on the client node: ~1 byte of GF math per payload byte
  // per parity shard.
  const double enc_bytes = static_cast<double>(blob.size()) *
                           static_cast<double>(m) / static_cast<double>(k);
  co_await fs_->cluster().node(node_).cpu().consume(0.3e-9 * enc_bytes, 1.0);

  std::vector<kvstore::Blob> shards;
  shards.reserve(k + m);
  if (blob.is_ghost() || blob.size() == 0) {
    const Bytes ss = erasure::shard_size(blob.size(), k);
    for (std::size_t j = 0; j < k + m; ++j)
      shards.push_back(kvstore::Blob::ghost(
          ss, hash::mix64(blob.checksum(), j)));
  } else {
    erasure::ReedSolomon rs(k, m);
    auto raw = rs.encode(blob.bytes());
    for (auto& s : raw)
      shards.push_back(kvstore::Blob::materialized(std::move(s)));
  }

  std::vector<sim::Task<>> puts;
  puts.reserve(shards.size());
  for (std::size_t j = 0; j < shards.size(); ++j) {
    puts.push_back(put_stripe_copy(
        policy, attr, key_digest, Namespace::shard_key(key, j), j,
        std::make_shared<kvstore::Blob>(std::move(shards[j])), state));
  }
  co_await sim::when_all(fs_->cluster().sim(), std::move(puts));
}

// --- read path ----------------------------------------------------------------

namespace {

/// get() under the config's rpc_timeout: a deadline miss counts as a
/// timeout and reports the node suspect. `faulted` (optional) is set on
/// timeout/unavailable/io_error. Free of Client state on purpose: hedged
/// reads abandon the losing arm, and an abandoned coroutine must only
/// reference objects that outlive the read -- the FileSystem and its
/// servers qualify, the by-value Client handle and the caller's stack do
/// not.
sim::Task<Result<kvstore::Blob>> timed_get(FileSystem* fs, NodeId client_node,
                                           NodeId n, std::string key,
                                           bool* faulted) {
  auto& sim = fs->cluster().sim();
  // Circuit breaker: a node that kept timing out is rejected locally at
  // zero simulated cost -- the probe loop walks to the next replica
  // without burning a deadline on a peer known to be unreachable.
  if (!fs->health().allow(n, sim.now())) {
    ++fs->counters().breaker_rejections;
    co_return Error{Errc::rejected,
                    "breaker open: node " + std::to_string(n)};
  }
  const SimTime deadline = fs->config().rpc_timeout;
  Result<kvstore::Blob> out = Error{Errc::timeout, "rpc timeout"};
  if (deadline > 0) {
    auto r = co_await sim::with_timeout(
        sim, fs->server(n).get(client_node, fs->token(), std::move(key)),
        deadline);
    if (!r) {
      ++fs->counters().rpc_timeouts;
      if (faulted) *faulted = true;
      fs->report_suspect(n);
      fs->health().record(n, Errc::timeout, sim.now());
      co_return out;
    }
    out = std::move(*r);
  } else {
    out = co_await fs->server(n).get(client_node, fs->token(),
                                     std::move(key));
  }
  if (!out.ok() && errc_health_fault(out.code())) {
    if (faulted) *faulted = true;
    fs->report_suspect(n);
  }
  fs->health().record(n, out.ok() ? Errc::ok : out.code(), sim.now());
  co_return std::move(out);
}

/// Shared state of one hedged read: first success wins, the loser is
/// abandoned (its result discarded on arrival). Held by shared_ptr from
/// every arm so it outlives whichever finishes last.
struct HedgeState {
  explicit HedgeState(sim::Simulator& s) : done(s) {}
  Result<kvstore::Blob> winner{Error{Errc::not_found, ""}};
  bool have_winner = false;
  NodeId winner_node = kInvalidNode;
  HolderSearch::From winner_from = HolderSearch::From::home;
  bool faulted = false;
  std::size_t launched = 0;
  std::size_t finished = 0;
  sim::Event done;  ///< first success, or all arms failed
};

sim::Task<> hedge_arm(FileSystem* fs, NodeId client_node, NodeId n,
                      HolderSearch::From from, std::string key,
                      std::shared_ptr<HedgeState> st) {
  bool fault = false;  // this frame outlives the op; safe for the impl
  auto r = co_await timed_get(fs, client_node, n, std::move(key), &fault);
  st->faulted |= fault;
  ++st->finished;
  if (r.ok() && !st->have_winner) {
    st->have_winner = true;
    st->winner = std::move(r);
    st->winner_node = n;
    st->winner_from = from;
    st->done.trigger();
  } else if (st->finished >= st->launched && !st->have_winner) {
    st->done.trigger();  // idempotent; no-op if a winner already fired it
  }
}

}  // namespace

sim::Task<Result<kvstore::Blob>> Client::probe_ranked(
    const ClassHrwPolicy& policy, const FileAttr& attr,
    const std::string& key, std::uint64_t key_digest) {
  const std::size_t copies = replica_count(attr);
  auto& sim = fs_->cluster().sim();
  // A read is *degraded* when it succeeds after a fault-type failure
  // (timeout / unavailable / io_error); plain not_found misses from lazy
  // relocation do not count.
  bool faulted = false;
  for (int round = 0; round < kMaxRetries; ++round) {
    // Refresh: members change. The digest spares the re-hash per round.
    // The replica homes are the first `copies` ranks of the order.
    const auto order = policy.probe_order(key_digest);
    const auto homes = home_nodes(policy, attr, key_digest);

    // Hedged read (first round, replicated files only): issue the get to
    // the top-ranked holder, and if it has not resolved after the
    // observed latency quantile (FileSystem::hedge_delay), fire the same
    // get at the next replica; first success wins, the loser is
    // abandoned. Tail latency insurance against stalled or silently
    // partitioned primaries. The hedge decision depends only on
    // simulated time and the metrics histogram, so it replays exactly.
    if (round == 0 && copies >= 2) {
      const SimTime hedge_after = fs_->hedge_delay();
      // The first two ranked candidates of the sequential probe below.
      HolderSearch first_two(*fs_, homes, order);
      const NodeId n0 = hedge_after > 0 ? first_two.next() : kInvalidNode;
      const HolderSearch::From f0 = first_two.from();
      const NodeId n1 = n0 != kInvalidNode ? first_two.next() : kInvalidNode;
      const HolderSearch::From f1 = first_two.from();
      if (n1 != kInvalidNode && f1 != HolderSearch::From::drain) {
        auto st = std::make_shared<HedgeState>(sim);
        st->launched = 1;
        sim.spawn(hedge_arm(fs_, node_, n0, f0, key, st));
        FileSystem* fs = fs_;
        const NodeId me = node_;
        const auto backup_ev =
            sim.schedule(hedge_after, [fs, me, n1, f1, key, st] {
              // Primary already resolved (either way): no second arm.
              if (st->have_winner || st->finished >= st->launched) return;
              ++st->launched;
              ++fs->counters().hedged_reads;
              fs->cluster().obs().metrics.counter("fs.read.hedges").inc();
              fs->cluster().sim().spawn(hedge_arm(fs, me, n1, f1, key, st));
            });
        co_await st->done;
        sim.cancel(backup_ev);
        faulted |= st->faulted;
        if (st->have_winner) {
          if (st->winner_node == n1 && st->launched == 2)
            ++fs_->counters().hedge_wins;
          if (faulted) ++fs_->counters().degraded_reads;
          if (st->winner_from == HolderSearch::From::probe_order)
            sim.spawn(relocate(fs_, key, st->winner_node, order[0]));
          co_return std::move(st->winner);
        }
        // Both arms failed: fall through to the sequential probe of the
        // full order (the membership may already have shifted).
      }
    }

    HolderSearch search(*fs_, homes, order);
    for (NodeId n; (n = search.next()) != kInvalidNode;) {
      auto r = co_await timed_get(fs_, node_, n, key, &faulted);
      const HolderSearch::From from = search.from();
      if (r.ok()) {
        if (faulted) ++fs_->counters().degraded_reads;
        // Lazy relocation: a hit below the expected replica ranks means
        // the membership changed since the stripe was written.
        if (from == HolderSearch::From::probe_order)
          sim.spawn(relocate(fs_, key, n, order[0]));
        co_return r;
      }
      // A real error (e.g. permission) on a ranked node is not masked.
      if (from != HolderSearch::From::drain && r.code() != Errc::not_found &&
          !errc_connectivity(r.code()))
        co_return r;
    }
    ++fs_->counters().read_retries;
    fs_->cluster().obs().metrics.counter("fs.read.retries").inc();
    if (round + 1 < kMaxRetries)
      co_await sim.delay(backoff_delay(kRetryBackoff, kRetryBackoffMax,
                                       round, backoff_draw(key, round)));
  }
  co_return Error{Errc::not_found, key};
}

sim::Task<Result<kvstore::Blob>> Client::read_stripe(
    const ClassHrwPolicy& policy, const FileAttr& attr, std::string key,
    std::uint64_t key_digest, double extra_requests_per_mib) {
  const SimTime t0 = fs_->cluster().sim().now();
  const bool erasure = attr.redundancy == RedundancyMode::erasure;
  Result<kvstore::Blob> r = Error{Errc::not_found, key};
  if (erasure)
    r = co_await read_shards(policy, attr, key, key_digest);
  else
    r = co_await probe_ranked(policy, attr, key, key_digest);
  if (r.ok()) {
    ++fs_->counters().stripes_read;
    if (!erasure && extra_requests_per_mib > 0) {
      // Charge the chatty sub-stripe requests against the server that
      // actually held the stripe (the probe order's first live holder).
      const auto order = policy.probe_order(key_digest);
      for (NodeId n : order) {
        if (!fs_->has_server(n)) continue;
        co_await fs_->server(n).request_burst(
            node_, extra_requests_per_mib *
                       static_cast<double>(r.value().size()) /
                       static_cast<double>(units::MiB));
        break;
      }
    }
  }
  record_stripe_op("fs.read_stripe.latency", "fs.read_stripe", t0, key);
  co_return r;
}

sim::Task<Result<kvstore::Blob>> Client::read_shards(
    const ClassHrwPolicy& policy, const FileAttr& attr, const std::string& key,
    std::uint64_t key_digest) {
  const std::size_t k = attr.ec_k, m = attr.ec_m;
  const auto order = policy.probe_order(key_digest);
  const auto homes = stripe_homes(policy, attr, key, key_digest);
  if (homes.empty()) co_return Error{Errc::unavailable, "no servers"};

  // Fetch shards until k are in hand; prefer the data shards (systematic
  // code: no decode needed when shards 0..k-1 arrive).
  bool faulted = false;
  std::vector<std::pair<std::size_t, kvstore::Blob>> have;
  for (std::size_t j = 0; j < homes.size() && have.size() < k; ++j) {
    const StripeHome& home = homes[j];
    Result<kvstore::Blob> r = Error{Errc::not_found, home.key};
    HolderSearch search(*fs_, {&home.node, 1}, order);
    for (NodeId n; !r.ok() && (n = search.next()) != kInvalidNode;)
      r = co_await timed_get(fs_, node_, n, home.key, &faulted);
    if (r.ok()) have.emplace_back(j, std::move(r.value()));
  }
  if (have.size() < k)
    co_return Error{Errc::corruption, "fewer than k shards reachable: " + key};

  const bool needs_decode =
      std::any_of(have.begin(), have.end(),
                  [k](const auto& p) { return p.first >= k; });
  Bytes stripe_len = 0;
  for (const auto& [j, b] : have) stripe_len += b.size();
  // Shards are equally sized; the true stripe length is restored from
  // metadata by the caller (ghost) or decode (materialized).

  const bool ghost = have.front().second.is_ghost();
  // Parity reconstruction after a lost data shard is the degraded-read
  // path of an erasure file, whether or not an RPC visibly failed.
  if (faulted || needs_decode) ++fs_->counters().degraded_reads;
  if (needs_decode) {
    ++fs_->counters().reconstructions;
    // Decode cost on the client node.
    co_await fs_->cluster()
        .node(node_)
        .cpu()
        .consume(0.6e-9 * static_cast<double>(stripe_len), 1.0);
  }
  if (ghost) co_return kvstore::Blob::ghost(stripe_len, 0);
  // Materialized: run the real decoder.
  erasure::ReedSolomon rs(k, m);
  std::vector<std::vector<std::uint8_t>> slots(k + m);
  Bytes payload_cap = 0;
  for (auto& [j, b] : have) {
    slots[j].assign(b.bytes().begin(), b.bytes().end());
    payload_cap = slots[j].size() * k;
  }
  auto decoded = rs.decode(slots, payload_cap);
  if (!decoded.ok()) co_return decoded.error();
  co_return kvstore::Blob::materialized(std::move(decoded).value());
}

sim::Task<Result<Bytes>> Client::read_file(std::string path,
                                           double extra_requests_per_mib) {
  auto st = co_await fs_->meta().stat(node_, path);
  if (!st.ok()) co_return st.error();
  if (st.value().is_directory)
    co_return Error{Errc::is_a_directory, path};
  const Stat s = st.value();
  const ClassHrwPolicy policy = fs_->policy_for_epoch(s.attr.epoch);

  auto& sim = fs_->cluster().sim();
  std::vector<Result<kvstore::Blob>> results(s.stripe_count,
                                             Error{Errc::not_found, ""});
  sim::Semaphore window(sim, kStripeWindow);
  std::vector<sim::Task<>> tasks;
  for (std::size_t i = 0; i < s.stripe_count; ++i) {
    std::string key = Namespace::stripe_key(s.inode, i);
    const std::uint64_t digest = Namespace::stripe_key_digest(s.inode, i);
    tasks.push_back(guarded(
        window, [](Client* c, const ClassHrwPolicy& p, const FileAttr& a,
                   std::string k, std::uint64_t d, double extra,
                   Result<kvstore::Blob>& out) -> sim::Task<> {
          out = co_await c->read_stripe(p, a, std::move(k), d, extra);
        }(this, policy, s.attr, std::move(key), digest,
          extra_requests_per_mib, results[i])));
  }
  co_await sim::when_all(sim, std::move(tasks));

  Bytes total = 0;
  for (auto& r : results) {
    if (!r.ok()) co_return r.error();
    total += r.value().size();
  }
  // Ghost erasure shards round sizes up; report the metadata size.
  if (s.attr.redundancy == RedundancyMode::erasure) total = s.attr.size;
  fs_->counters().bytes_read += total;
  co_return total;
}

sim::Task<Result<std::vector<std::uint8_t>>> Client::read_file_bytes(
    std::string path) {
  auto st = co_await fs_->meta().stat(node_, path);
  if (!st.ok()) co_return st.error();
  const Stat s = st.value();
  if (s.is_directory) co_return Error{Errc::is_a_directory, path};
  const ClassHrwPolicy policy = fs_->policy_for_epoch(s.attr.epoch);

  std::vector<std::uint8_t> out;
  out.reserve(s.attr.size);
  for (std::size_t i = 0; i < s.stripe_count; ++i) {
    std::string key = Namespace::stripe_key(s.inode, i);
    const std::uint64_t digest = Namespace::stripe_key_digest(s.inode, i);
    auto r =
        co_await read_stripe(policy, s.attr, std::move(key), digest, 0.0);
    if (!r.ok()) co_return r.error();
    const auto& blob = r.value();
    if (blob.is_ghost())
      co_return Error{Errc::invalid_argument,
                      "read_file_bytes on a ghost-written file"};
    // Erasure decode returns k * shard_size bytes, which exceeds the true
    // stripe length when the stripe is not divisible by k -- trim each
    // stripe to its metadata length so padding never lands mid-file.
    const Bytes off = static_cast<Bytes>(i) * s.attr.stripe_size;
    const Bytes expect = std::min<Bytes>(s.attr.stripe_size,
                                         s.attr.size - off);
    const std::size_t take =
        std::min<std::size_t>(blob.bytes().size(), expect);
    out.insert(out.end(), blob.bytes().begin(),
               blob.bytes().begin() + static_cast<std::ptrdiff_t>(take));
  }
  out.resize(std::min<std::size_t>(out.size(), s.attr.size));
  fs_->counters().bytes_read += out.size();
  co_return out;
}

sim::Task<Status> Client::unlink(std::string path) {
  auto removed = co_await fs_->meta().unlink(node_, path);
  if (!removed.ok()) co_return removed.error();
  const Stat s = removed.value();
  const ClassHrwPolicy policy = fs_->policy_for_epoch(s.attr.epoch);

  for (std::size_t i = 0; i < s.stripe_count; ++i) {
    const std::string key = Namespace::stripe_key(s.inode, i);
    const std::uint64_t digest = Namespace::stripe_key_digest(s.inode, i);
    std::vector<std::string> keys;  // distinct store keys, copy order
    for (const auto& [n, k] : stripe_homes(policy, s.attr, key, digest)) {
      if (std::find(keys.begin(), keys.end(), k) == keys.end())
        keys.push_back(k);
      if (!fs_->has_server(n)) continue;
      auto st = co_await fs_->server(n).del(node_, fs_->token(), k);
      (void)st;  // not_found is fine: replica may have moved
    }
    // Sweep draining nodes for every copy's key too (a snapshot: the set
    // changes while the deletes are awaited).
    const std::vector<NodeId> draining(fs_->draining_nodes().begin(),
                                       fs_->draining_nodes().end());
    for (NodeId n : draining) {
      if (!fs_->has_server(n)) continue;
      for (const auto& k : keys) {
        auto st = co_await fs_->server(n).del(node_, fs_->token(), k);
        (void)st;
      }
    }
  }
  co_return Status{};
}

}  // namespace memfss::fs
