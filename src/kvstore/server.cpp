#include "kvstore/server.hpp"

#include <vector>

#include "common/str.hpp"
#include "sim/sync.hpp"

namespace memfss::kvstore {

Server::Server(sim::Simulator& sim, net::Fabric& fabric, NodeId node,
               Bytes store_capacity, std::string auth_token,
               ResourceHooks hooks, ServerCosts costs)
    : sim_(sim),
      fabric_(fabric),
      node_(node),
      store_(store_capacity, std::move(auth_token)),
      hooks_(hooks),
      costs_(costs),
      engine_(sim, costs.engine_cores, "kv-engine") {
  if (hooks_.obs) {
    auto& m = hooks_.obs->metrics;
    h_put_ = &m.histogram("kv.put.service");
    h_get_ = &m.histogram("kv.get.service");
    g_queue_ = &m.gauge(strformat("kv.n%u.queue_depth", node_));
    g_mem_ = &m.gauge(strformat("kv.n%u.mem_bytes", node_));
  }
}

void Server::enter_request() {
  ++inflight_;
  if (g_queue_) g_queue_->set(static_cast<double>(inflight_));
}

void Server::leave_request() {
  --inflight_;
  if (g_queue_) g_queue_->set(static_cast<double>(inflight_));
  if (g_mem_) g_mem_->set(static_cast<double>(store_.used()));
}

double Server::request_rate() const { return meter_.rate(sim_.now()); }

double Server::byte_rate() const { return byte_meter_.rate(sim_.now()); }

void Server::close() { store_.close(); }

void Server::wipe() {
  const Bytes freed = store_.clear();
  if (hooks_.mem && freed > 0) hooks_.mem->free(freed);
  if (tier_) {
    const Bytes cold = tier_->clear();
    if (g_tier_bytes_ && cold > 0)
      g_tier_bytes_->add(-static_cast<double>(cold));
  }
}

// --- tiered hot/cold memory (DESIGN.md §16) ---------------------------------

void Server::attach_tier(std::unique_ptr<ColdTier> tier, SimTime heat_epoch) {
  tier_ = std::move(tier);
  heat_epoch_len_ = heat_epoch > 0 ? heat_epoch : 1.0;
  if (hooks_.obs && tier_) {
    auto& m = hooks_.obs->metrics;
    c_demotions_ = &m.counter("tier.demotions");
    c_promotions_ = &m.counter("tier.promotions");
    c_cold_hits_ = &m.counter("tier.cold_hits");
    g_tier_bytes_ = &m.gauge("tier.resident_bytes");
    h_cold_ = &m.histogram("tier.cold_hit_latency");
  }
}

std::uint64_t Server::heat_epoch_now() const {
  return static_cast<std::uint64_t>(sim_.now() / heat_epoch_len_);
}

void Server::touch_heat(const std::string& key) {
  if (tier_) store_.touch_heat(key, heat_epoch_now());
}

Result<Bytes> Server::resident_size(std::string_view token,
                                    std::string_view key) const {
  auto hot = store_.value_size(token, key);
  if (hot.ok() || hot.code() != Errc::not_found) return hot;
  if (tier_) {
    if (auto cold = tier_->value_size({}, key); cold.ok()) return cold;
  }
  return hot;
}

std::vector<std::string> Server::all_keys() const {
  auto out = store_.keys();
  if (tier_) {
    auto cold = tier_->keys();
    out.insert(out.end(), std::make_move_iterator(cold.begin()),
               std::make_move_iterator(cold.end()));
  }
  return out;
}

std::vector<std::string> Server::demotion_order() const {
  return store_.keys_by_heat(heat_epoch_now());
}

sim::Task<> Server::charge_tier(Bytes payload, bool write) {
  if (!tier_) co_return;
  std::vector<sim::Task<>> work;
  const SimTime device =
      write ? tier_->write_cost(payload) : tier_->read_cost(payload);
  work.push_back([](sim::Simulator& s, SimTime d) -> sim::Task<> {
    co_await s.delay(d);
  }(sim_, device));
  // The demote/promote copy is server work like any request: it funnels
  // through the single-threaded engine and moves the payload over the
  // memory bus once.
  const double cycles = costs_.cpu_per_request +
                        costs_.cpu_per_byte * static_cast<double>(payload);
  work.push_back(engine_.consume(cycles, 1.0));
  if (hooks_.cpu) work.push_back(hooks_.cpu->consume(cycles, 1.0));
  if (hooks_.membw && payload > 0) {
    work.push_back(hooks_.membw->consume(
        costs_.membw_per_byte * static_cast<double>(payload)));
  }
  co_await sim::when_all(sim_, std::move(work));
}

bool Server::reinstall_hot(const std::string& key) {
  const Blob* cold = tier_ ? tier_->peek(key) : nullptr;
  if (cold == nullptr) return false;
  const Bytes accounted = Store::charge(cold->size());
  if (store_.available() < accounted) return false;
  if (hooks_.mem && !hooks_.mem->try_alloc(accounted)) return false;
  // No await since the peek and the room check, so both moves succeed.
  Store::Delta moved;
  (void)store_.restore(key, *tier_->drain(key, &moved));
  if (g_tier_bytes_) g_tier_bytes_->add(-static_cast<double>(moved.released));
  if (c_promotions_) c_promotions_->inc();
  return true;
}

sim::Task<Status> Server::demote_key(std::string key) {
  if (!tier_) co_return Status{Errc::invalid_argument, "no cold tier"};
  if (live_ == Liveness::down)
    co_return Status{Errc::unavailable, "node down"};
  const Blob* b = store_.peek(key);
  if (b == nullptr) co_return Status{Errc::not_found, key};
  if (tier_->available() < Store::charge(b->size()))
    co_return Status{Errc::out_of_memory, "cold tier full"};
  const std::uint64_t inc = incarnation_;
  // Device write is charged *before* the move: a crash landing inside it
  // aborts with the entry still hot -- never resident in both tiers,
  // never half-moved.
  co_await charge_tier(b->size(), /*write=*/true);
  if (live_ == Liveness::down || incarnation_ != inc)
    co_return Status{Errc::io_error, "server died mid-demotion"};
  // Re-validate after the await: a concurrent writer may have replaced or
  // deleted the entry, and a concurrent demotion may have won the space.
  const Blob* hot = store_.peek(key);
  if (hot == nullptr) co_return Status{Errc::not_found, key};
  // Copy into the tier before dropping the hot entry: a tier refusal then
  // leaves the entry exactly where it was. The moves below are synchronous
  // (no awaits), so no request ever observes the key in both tiers.
  Store::Delta in, out;
  if (auto st = tier_->put({}, key, *hot, 0, &in); !st.ok()) co_return st;
  (void)store_.drain(key, &out);
  if (hooks_.mem) hooks_.mem->free(out.released);
  if (g_tier_bytes_) g_tier_bytes_->add(static_cast<double>(in.charged));
  if (c_demotions_) c_demotions_->inc();
  co_return Status{};
}

sim::Task<Status> Server::promote_key(std::string key) {
  if (!tier_) co_return Status{Errc::invalid_argument, "no cold tier"};
  if (live_ == Liveness::down)
    co_return Status{Errc::unavailable, "node down"};
  const auto size = tier_->value_size({}, key);
  if (!size.ok()) co_return Status{Errc::not_found, key};
  const std::uint64_t inc = incarnation_;
  co_await charge_tier(size.value(), /*write=*/false);
  if (live_ == Liveness::down || incarnation_ != inc)
    co_return Status{Errc::io_error, "server died mid-promotion"};
  if (!reinstall_hot(key)) {
    if (tier_->peek(key) == nullptr)
      co_return Status{Errc::not_found, key};  // raced a migration
    co_return Status{Errc::out_of_memory, "hot tier full"};
  }
  touch_heat(key);
  co_return Status{};
}

void Server::crash() {
  if (live_ == Liveness::down) return;
  live_ = Liveness::down;
  ++incarnation_;
  wipe();           // in-memory data is gone with the process
  store_.close();   // direct store users (drain paths) see unavailable
}

void Server::stall_for(SimTime duration) {
  if (live_ == Liveness::down || duration <= 0) return;
  live_ = Liveness::stalled;
  const SimTime until = sim_.now() + duration;
  if (until > stalled_until_) stalled_until_ = until;
  sim_.schedule(duration, [this] {
    if (live_ == Liveness::stalled && sim_.now() >= stalled_until_)
      live_ = Liveness::up;
  });
}

sim::Task<> Server::stall_gate() {
  while (live_ == Liveness::stalled && sim_.now() < stalled_until_)
    co_await sim_.delay(stalled_until_ - sim_.now());
}

sim::Task<> Server::charge(NodeId client, Bytes payload, bool to_client) {
  meter_.record(sim_.now());
  byte_meter_.record(sim_.now(), static_cast<double>(payload));
  std::vector<sim::Task<>> work;
  // Wire: the payload moves between client and server under the scavenge
  // bandwidth cap (if any).
  const NodeId src = to_client ? node_ : client;
  const NodeId dst = to_client ? client : node_;
  work.push_back(fabric_.transfer(src, dst, payload, net::Fabric::kUncapped,
                                  hooks_.net_cap));
  const double cycles = costs_.cpu_per_request +
                        costs_.cpu_per_byte * static_cast<double>(payload);
  // The single-threaded engine is the per-server service-rate limit; the
  // same cycles also land on the node CPU so telemetry and contention
  // with co-located work stay correct.
  work.push_back(engine_.consume(cycles, 1.0));
  if (hooks_.cpu) work.push_back(hooks_.cpu->consume(cycles, 1.0));
  if (hooks_.membw && payload > 0) {
    work.push_back(hooks_.membw->consume(
        costs_.membw_per_byte * static_cast<double>(payload)));
  }
  co_await sim::when_all(sim_, std::move(work));
}

sim::Task<Status> Server::put(NodeId client, std::string_view token,
                              std::string key, Blob value) {
  const SimTime t0 = sim_.now();
  enter_request();
  Status st =
      co_await put_impl(client, token, std::move(key), std::move(value));
  leave_request();
  if (h_put_) h_put_->add(sim_.now() - t0);
  if (hooks_.obs && hooks_.obs->tracer.enabled(obs::Component::kvstore))
    hooks_.obs->tracer.span(obs::Component::kvstore, node_, "kv.put", t0,
                            st.ok() ? "" : "err");
  co_return st;
}

sim::Task<Result<Blob>> Server::get(NodeId client, std::string_view token,
                                    std::string key) {
  const SimTime t0 = sim_.now();
  enter_request();
  Result<Blob> r = co_await get_impl(client, token, std::move(key));
  leave_request();
  if (h_get_) h_get_->add(sim_.now() - t0);
  if (hooks_.obs && hooks_.obs->tracer.enabled(obs::Component::kvstore))
    hooks_.obs->tracer.span(obs::Component::kvstore, node_, "kv.get", t0,
                            r.ok() ? "" : "err");
  co_return r;
}

sim::Task<Status> Server::put_impl(NodeId client, std::string_view token,
                                   std::string key, Blob value) {
  // A cut forward link fails fast (no route), like ENETUNREACH. A cut
  // *reverse* link is deliberately not checked here: the request lands
  // and executes but the reply stalls, so the client sees a timeout --
  // the observable signature of an asymmetric partition.
  if (!fabric_.reachable(client, node_))
    co_return Status{Errc::unreachable, "no route to node"};
  // Request envelope to the server, then payload + processing, then reply.
  co_await fabric_.message(client, node_);
  if (live_ == Liveness::down)  // connection refused
    co_return Status{Errc::unavailable, "node down"};
  co_await stall_gate();
  const std::uint64_t inc = incarnation_;
  const Bytes payload = value.size();
  co_await charge(client, payload, /*to_client=*/false);
  if (live_ == Liveness::down || incarnation_ != inc)
    co_return Status{Errc::io_error, "server died mid-transfer"};
  // The pool mirror must track overwrites the way the store does: a put
  // onto an existing key (client retry whose first attempt landed, repair
  // re-replicating onto a holder) releases the replaced value's bytes.
  Store::Delta moved;
  Status st = store_.put(token, key, std::move(value), 0, &moved);
  if (st.ok() && hooks_.mem) {
    if (moved.released > 0) hooks_.mem->free(moved.released);
    if (!hooks_.mem->try_alloc(moved.charged)) {
      // Node memory exhausted even though the store cap allowed it:
      // undo and report. (Store cap <= node memory normally prevents this.)
      (void)store_.del(token, key);
      st = Status{Errc::out_of_memory, "node memory exhausted"};
    }
  }
  Store::Delta stale;
  if (st.ok() && tier_ && tier_->drain(key, &stale) && g_tier_bytes_) {
    // Overwrite of a cold-resident key: the fresh hot value is
    // authoritative -- drop the stale cold copy so the key is never
    // resident in both tiers.
    g_tier_bytes_->add(-static_cast<double>(stale.released));
  }
  if (st.ok()) touch_heat(key);
  co_await fabric_.message(node_, client);
  co_return st;
}

sim::Task<Result<Blob>> Server::get_impl(NodeId client,
                                         std::string_view token,
                                         std::string key) {
  if (!fabric_.reachable(client, node_))
    co_return Error{Errc::unreachable, "no route to node"};
  co_await fabric_.message(client, node_);
  if (live_ == Liveness::down)
    co_return Error{Errc::unavailable, "node down"};
  co_await stall_gate();
  const std::uint64_t inc = incarnation_;
  Result<Blob> r = store_.get(token, key);
  if (r.ok()) touch_heat(key);
  bool cold_hit = false;
  const SimTime cold_t0 = sim_.now();
  if (!r.ok() && r.code() == Errc::not_found && tier_) {
    // Transparent cold hit: fetch from the tier (charging the device
    // read), serve the bytes, and promote-on-access so the next read is
    // hot. The hit is served even if promotion fails for space -- the
    // entry just stays cold.
    auto cold = tier_->get({}, key);
    if (cold.ok()) {
      cold_hit = true;
      co_await charge_tier(cold.value().size(), /*write=*/false);
      if (live_ == Liveness::down || incarnation_ != inc)
        co_return Error{Errc::io_error, "server died mid-transfer"};
      if (c_cold_hits_) c_cold_hits_->inc();
      if (reinstall_hot(key)) touch_heat(key);
      r = std::move(cold).value();
    }
  }
  const Bytes payload = r.ok() ? r.value().size() : 0;
  co_await charge(client, payload, /*to_client=*/true);
  if (live_ == Liveness::down || incarnation_ != inc)
    co_return Error{Errc::io_error, "server died mid-transfer"};
  co_await fabric_.message(node_, client);
  if (cold_hit && h_cold_) h_cold_->add(sim_.now() - cold_t0);
  co_return r;
}

sim::Task<Result<bool>> Server::exists(NodeId client, std::string_view token,
                                       std::string key) {
  if (!fabric_.reachable(client, node_))
    co_return Error{Errc::unreachable, "no route to node"};
  co_await fabric_.message(client, node_);
  if (live_ == Liveness::down)
    co_return Error{Errc::unavailable, "node down"};
  co_await stall_gate();
  meter_.record(sim_.now());
  Result<bool> r = store_.exists(token, key);
  if (r.ok() && !r.value() && tier_ && tier_->peek(key)) r = true;
  co_await fabric_.message(node_, client);
  co_return r;
}

sim::Task<Status> Server::del(NodeId client, std::string_view token,
                              std::string key) {
  if (!fabric_.reachable(client, node_))
    co_return Status{Errc::unreachable, "no route to node"};
  co_await fabric_.message(client, node_);
  if (live_ == Liveness::down)
    co_return Status{Errc::unavailable, "node down"};
  co_await stall_gate();
  meter_.record(sim_.now());
  Store::Delta freed;
  Status st = store_.del(token, key, &freed);
  if (st.ok() && hooks_.mem) hooks_.mem->free(freed.released);
  if (st.code() == Errc::not_found && tier_ && tier_->drain(key, &freed)) {
    // Cold-resident delete: no node memory to release (the bytes live in
    // the tier, outside the pool).
    st = Status{};
    if (g_tier_bytes_)
      g_tier_bytes_->add(-static_cast<double>(freed.released));
  }
  co_await fabric_.message(node_, client);
  co_return st;
}

sim::Task<> Server::request_burst(NodeId client, double count) {
  if (count <= 0.0 || live_ == Liveness::down) co_return;
  co_await stall_gate();
  meter_.record(sim_.now(), count);
  std::vector<sim::Task<>> work;
  // Request envelopes on the wire (aggregated into one transfer).
  work.push_back(fabric_.transfer(client, node_,
                                  static_cast<Bytes>(count * 64.0),
                                  net::Fabric::kUncapped, hooks_.net_cap));
  work.push_back(engine_.consume(costs_.cpu_per_request * count, 1.0));
  if (hooks_.cpu)
    work.push_back(hooks_.cpu->consume(costs_.cpu_per_request * count, 1.0));
  co_await sim::when_all(sim_, std::move(work));
}

sim::Task<Status> Server::replicate_key(std::string_view token,
                                        std::string key, Server& dst) {
  auto blob = store_.get(token, key);
  if (!blob.ok() && blob.code() == Errc::not_found && tier_) {
    // Repair may source from a cold-resident copy: read it in place
    // (charging the device) without promoting -- repair traffic should
    // not displace hot tenant bytes.
    auto cold = tier_->get({}, key);
    if (cold.ok()) {
      const std::uint64_t inc = incarnation_;
      co_await charge_tier(cold.value().size(), /*write=*/false);
      if (live_ == Liveness::down || incarnation_ != inc)
        co_return Status{Errc::unavailable, "node down"};
      co_return co_await dst.put(node_, token, std::move(key),
                                 std::move(cold).value());
    }
  }
  if (!blob.ok()) co_return Status{blob.error()};
  co_return co_await dst.put(node_, token, std::move(key),
                             std::move(blob).value());
}

sim::Task<Status> Server::migrate_key(std::string_view token, std::string key,
                                      Server& dst) {
  // Local read (no wire cost), bulk ship, remote write. Used by lazy
  // rebalance and by victim evacuation.
  bool was_cold = false;
  Store::Delta moved;
  auto blob = store_.drain(key, &moved);
  if (!blob && tier_) {
    blob = tier_->drain(key, &moved);
    was_cold = blob.has_value();
  }
  if (!blob) co_return Status{Errc::not_found, key};
  if (was_cold) {
    if (g_tier_bytes_)
      g_tier_bytes_->add(-static_cast<double>(moved.released));
    const std::uint64_t inc = incarnation_;
    co_await charge_tier(blob->size(), /*write=*/false);  // device read-out
    if (live_ == Liveness::down || incarnation_ != inc)
      co_return Status{Errc::unavailable, "node down"};
  } else if (hooks_.mem) {
    hooks_.mem->free(moved.released);
  }
  Status st = co_await dst.put(node_, token, key, *blob);
  if (!st.ok()) {
    // The destination refused or was unreachable/partitioned. Draining
    // already removed the local copy -- put it back so a failed
    // migration degrades to "not moved yet" instead of silent data loss.
    // (If this node died mid-flight, the crash wiped the store and
    // repair owns the data now; don't resurrect bytes into a wiped pool.)
    Store::Delta back;
    if (live_ != Liveness::down && was_cold) {
      // Cold copies go back where they came from -- unless a concurrent
      // writer re-created the key hot, in which case that value wins.
      if (store_.peek(key) == nullptr &&
          tier_->put({}, key, std::move(*blob), 0, &back).ok() &&
          g_tier_bytes_) {
        g_tier_bytes_->add(static_cast<double>(back.charged));
      }
    } else if (live_ != Liveness::down) {
      // A concurrent writer may have re-created the key while the failed
      // migration was in flight; restore overwrites it, so the pool
      // mirror must release the replaced bytes like put does.
      if (!hooks_.mem || hooks_.mem->try_alloc(moved.released)) {
        if (store_.restore(key, std::move(*blob), &back).ok()) {
          if (hooks_.mem && back.released > 0) hooks_.mem->free(back.released);
        } else if (hooks_.mem) {
          hooks_.mem->free(moved.released);
        }
      }
    }
  }
  co_return st;
}

}  // namespace memfss::kvstore
