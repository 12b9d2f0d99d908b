#include "fs/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "cluster/fault.hpp"
#include "common/log.hpp"
#include "common/str.hpp"
#include "fs/client.hpp"
#include "hash/hashes.hpp"
#include "hash/hrw.hpp"
#include "hash/weight_solver.hpp"
#include "sim/sync.hpp"

namespace memfss::fs {

/// Heat decay epoch of tiered victims (s): access counters halve per epoch.
constexpr SimTime kHeatEpoch = 1.0;
/// A demote pass stops once pool usage drops below
/// (monitor threshold - kDemoteHeadroom) * capacity -- the slack keeps
/// back-to-back tenant allocations from re-firing instantly.
constexpr double kDemoteHeadroom = 0.05;

FileSystem::FileSystem(cluster::Cluster& cluster, FileSystemConfig config)
    : cluster_(cluster),
      config_(std::move(config)),
      meta_(cluster, config_.own_nodes),
      health_(config_.breaker, &cluster.obs()) {
  assert(!config_.own_nodes.empty());
  membership_.set_members(kOwnClass, config_.own_nodes);
  epochs_.push_back(PlacementEpoch{0, {{kOwnClass, 0.0}}});
  for (NodeId n : config_.own_nodes) {
    node_class_[n] = kOwnClass;
    make_server(n, config_.own_store_capacity, net::Fabric::kUncapped,
                /*victim=*/false);
  }
}

FileSystem::~FileSystem() = default;

Client FileSystem::client(NodeId own_node) {
  assert(node_class_.count(own_node) &&
         node_class_.at(own_node) == kOwnClass);
  return Client(*this, own_node);
}

void FileSystem::make_server(NodeId node, Bytes capacity, Rate net_cap,
                             bool victim) {
  kvstore::ResourceHooks hooks;
  auto& nd = cluster_.node(node);
  hooks.cpu = &nd.cpu();
  hooks.membw = &nd.membw();
  hooks.mem = &nd.memory();
  hooks.obs = &cluster_.obs();
  if (victim && std::isfinite(net_cap)) {
    auto group = std::make_unique<net::CapGroup>(net_cap);
    hooks.net_cap = group.get();
    cap_groups_[node] = std::move(group);
  }
  servers_[node] = std::make_unique<kvstore::Server>(
      cluster_.sim(), cluster_.fabric(), node, capacity, config_.auth_token,
      hooks);
  if (victim && config_.victim_tier_capacity > 0) {
    servers_[node]->attach_tier(
        std::make_unique<kvstore::ColdTier>(config_.victim_tier_capacity),
        kHeatEpoch);
  }
}

Status FileSystem::add_victim_class(
    std::uint32_t class_id, const std::vector<cluster::ScavengeOffer>& offers,
    double own_fraction) {
  if (class_id == kOwnClass)
    return {Errc::invalid_argument, "class 0 is the own class"};
  if (membership_.has_class(class_id))
    return {Errc::already_exists, strformat("class %u", class_id)};
  if (offers.empty())
    return {Errc::invalid_argument, "no scavenge offers"};
  if (own_fraction < 0.0 || own_fraction > 1.0)
    return {Errc::invalid_argument, "own_fraction out of [0,1]"};

  std::vector<NodeId> nodes;
  for (const auto& o : offers) {
    if (servers_.count(o.node))
      return {Errc::already_exists,
              strformat("node %u already participates", o.node)};
    nodes.push_back(o.node);
  }
  membership_.set_members(class_id, nodes);
  for (const auto& o : offers) {
    node_class_[o.node] = class_id;
    make_server(o.node, o.memory_cap, o.net_cap, /*victim=*/true);
  }
  const auto w = hash::two_class_weights(own_fraction);
  epochs_.push_back(PlacementEpoch{
      static_cast<std::uint32_t>(epochs_.size()),
      {{kOwnClass, w.own}, {class_id, w.victim}}});
  LOG_INFO("fs") << "victim class " << class_id << " with " << nodes.size()
                 << " nodes, alpha=" << own_fraction
                 << " (w_own=" << w.own << ", w_victim=" << w.victim << ")";
  return {};
}

Status FileSystem::add_victim_nodes(
    std::uint32_t class_id,
    const std::vector<cluster::ScavengeOffer>& offers) {
  if (!membership_.has_class(class_id) || class_id == kOwnClass)
    return {Errc::not_found, strformat("victim class %u", class_id)};
  for (const auto& o : offers) {
    if (servers_.count(o.node))
      return {Errc::already_exists,
              strformat("node %u already participates", o.node)};
  }
  for (const auto& o : offers) {
    membership_.add_member(class_id, o.node);
    node_class_[o.node] = class_id;
    make_server(o.node, o.memory_cap, o.net_cap, /*victim=*/true);
  }
  return {};
}

Status FileSystem::add_epoch(std::vector<ClassWeight> weights) {
  if (weights.empty()) return {Errc::invalid_argument, "no weights"};
  for (const auto& cw : weights) {
    if (!membership_.has_class(cw.class_id) ||
        membership_.members(cw.class_id).empty())
      return {Errc::invalid_argument,
              strformat("class %u has no members", cw.class_id)};
  }
  epochs_.push_back(PlacementEpoch{static_cast<std::uint32_t>(epochs_.size()),
                                   std::move(weights)});
  return {};
}

const PlacementEpoch& FileSystem::epoch(std::uint32_t id) const {
  assert(id < epochs_.size());
  return epochs_[id];
}

ClassHrwPolicy FileSystem::policy_for_epoch(std::uint32_t id) const {
  return ClassHrwPolicy(epoch(id), membership_);
}

kvstore::Server& FileSystem::server(NodeId node) {
  auto it = servers_.find(node);
  assert(it != servers_.end());
  return *it->second;
}

Bytes FileSystem::bytes_on(NodeId node) const {
  auto it = servers_.find(node);
  return it == servers_.end() ? 0 : it->second->store().used();
}

std::vector<std::pair<NodeId, Bytes>> FileSystem::distribution() const {
  std::vector<std::pair<NodeId, Bytes>> out;
  for (NodeId n : config_.own_nodes) out.emplace_back(n, bytes_on(n));
  for (const auto& [n, srv] : servers_) {
    if (node_class_.at(n) != kOwnClass)
      out.emplace_back(n, srv->store().used());
  }
  return out;
}

Bytes FileSystem::total_bytes() const {
  Bytes total = 0;
  for (const auto& [n, srv] : servers_) total += srv->store().used();
  return total;
}

Status FileSystem::add_own_nodes(const std::vector<NodeId>& nodes,
                                 Bytes store_capacity) {
  if (nodes.empty()) return {Errc::invalid_argument, "no nodes"};
  for (NodeId n : nodes) {
    if (n >= cluster_.node_count())
      return {Errc::invalid_argument, strformat("node %u out of range", n)};
    if (servers_.count(n))
      return {Errc::already_exists,
              strformat("node %u already participates", n)};
  }
  const Bytes cap =
      store_capacity ? store_capacity : config_.own_store_capacity;
  for (NodeId n : nodes) {
    membership_.add_member(kOwnClass, n);
    node_class_[n] = kOwnClass;
    config_.own_nodes.push_back(n);
    make_server(n, cap, net::Fabric::kUncapped, /*victim=*/false);
  }
  meta_.set_own_nodes(config_.own_nodes);
  LOG_INFO("fs") << "own class grown by " << nodes.size() << " nodes ("
                 << config_.own_nodes.size() << " total)";
  return {};
}

sim::Task<Status> FileSystem::remove_own_node(NodeId node) {
  auto cls_it = node_class_.find(node);
  if (cls_it == node_class_.end() || cls_it->second != kOwnClass)
    co_return Status{Errc::not_found, strformat("own node %u", node)};
  if (config_.own_nodes.size() <= 1)
    co_return Status{Errc::invalid_argument, "cannot remove the last own node"};
  if (draining_.count(node)) co_return Status{};

  config_.own_nodes.erase(std::remove(config_.own_nodes.begin(),
                                      config_.own_nodes.end(), node),
                          config_.own_nodes.end());
  meta_.set_own_nodes(config_.own_nodes);
  // Same protocol as victim evacuation, within class 0.
  const Status result = co_await migrate_out(node, kOwnClass);
  LOG_INFO("fs") << "own node " << node << " retired ("
                 << config_.own_nodes.size() << " remain)";
  co_return result;
}

void FileSystem::wipe_data() {
  for (auto& [n, srv] : servers_) srv->wipe();
  meta_.reset();
}

sim::Task<Status> FileSystem::evacuate_victim(NodeId node) {
  auto cls_it = node_class_.find(node);
  if (cls_it == node_class_.end())
    co_return Status{Errc::not_found, strformat("node %u", node)};
  const std::uint32_t cls = cls_it->second;
  if (cls == kOwnClass)
    co_return Status{Errc::invalid_argument, "cannot evacuate an own node"};
  if (draining_.count(node)) co_return Status{};  // already in progress
  auto& src = server(node);
  LOG_INFO("fs") << "evacuating node " << node << ": "
                 << src.all_keys().size() << " keys, "
                 << format_bytes(src.store().used() + src.tier_bytes());
  co_return co_await migrate_out(node, cls);
}

sim::Task<Status> FileSystem::migrate_out(NodeId node, std::uint32_t cls) {
  // Leave the membership first: new writes stop targeting the node, and
  // each key's new HRW primary is exactly where we migrate it (minimal
  // disruption property). Reads that race the migration fall back to
  // probing draining nodes (HolderSearch).
  draining_.insert(node);
  membership_.remove_member(cls, node);
  const auto& remaining = membership_.members(cls);
  auto& src = server(node);
  // Pick each key's target from the *current* membership: `remaining` is
  // a live view, and a concurrent evacuation can drain the rest of the
  // class while a migrate_key is awaited. Once the class is empty, keys
  // fall back to the own class (which always has members) instead of
  // selecting from an empty candidate set.
  const auto pick = [&](const std::string& k) {
    const auto& targets =
        remaining.empty() ? membership_.members(kOwnClass) : remaining;
    return hash::hrw_select(hash::key_digest(k), targets);
  };
  Status result{};
  std::set<std::string> attempted;
  for (;;) {
    // Re-snapshot until the store is dry: a concurrent evacuation can
    // have selected this node as a migration target just before it left
    // the membership, and that put lands *after* our snapshot -- closing
    // on the first snapshot would strand the key on a dead server. Keys
    // whose migration failed stay behind for targeted repair (attempted
    // once, same as before), so the loop terminates.
    std::vector<std::string> todo;
    for (auto& k : src.all_keys())
      if (attempted.insert(k).second) todo.push_back(std::move(k));
    if (todo.empty()) break;
    for (const auto& k : todo) {
      const NodeId dst = pick(k);
      Status st =
          co_await src.migrate_key(config_.auth_token, k, server(dst));
      if (!st.ok() && pick(k) != dst) {
        // The target itself evacuated or died between selection and
        // arrival (the failed migration restored the key locally); one
        // retry against the membership as it stands now.
        st = co_await src.migrate_key(config_.auth_token, k,
                                      server(pick(k)));
      }
      if (!st.ok()) result = st;
    }
  }
  src.close();
  draining_.erase(node);
  co_return result;
}

void FileSystem::arm_victim_monitors(double threshold_fraction) {
  monitor_threshold_ = threshold_fraction;
  for (const auto& [node, cls] : node_class_) {
    if (cls == kOwnClass) continue;
    const NodeId n = node;
    monitors_.push_back(std::make_unique<cluster::VictimMonitor>(
        cluster_.sim(), cluster_.node(n).memory(), n, threshold_fraction,
        [this](NodeId victim) {
          auto it = servers_.find(victim);
          if (it != servers_.end() && it->second->tiered() &&
              it->second->is_up() && draining_.count(victim) == 0) {
            // Tiered victim: give the tenant its RAM back by demoting
            // the coldest keys to the node-local tier instead of pushing
            // the whole store over the fabric. Escalation to a full
            // eviction happens inside the pass if the tier cannot help.
            cluster_.sim().spawn(demote_coldest(victim));
            return;
          }
          start_evacuation(victim);
        }));
  }
}

void FileSystem::start_evacuation(NodeId node) {
  if (injector_ != nullptr) {
    // Route through the fault bus: shared accounting, and the eviction
    // gets graceful-drain-or-kill handling plus targeted repair instead of
    // an unbounded best-effort evacuation.
    injector_->evict_now(node);
    return;
  }
  cluster_.sim().spawn([](FileSystem& fs, NodeId v) -> sim::Task<> {
    const SimTime t0 = fs.cluster_.sim().now();
    const Status st = co_await fs.evacuate_victim(v);
    fs.cluster_.obs()
        .metrics.histogram("fs.victim_reclaim.latency")
        .add(fs.cluster_.sim().now() - t0);
    if (!st.ok()) {
      LOG_WARN("fs") << "evacuation of node " << v
                     << " failed: " << st.error().to_string();
    }
  }(*this, node));
}

sim::Task<> FileSystem::demote_coldest(NodeId node) {
  auto it = servers_.find(node);
  if (it == servers_.end()) co_return;
  auto& srv = *it->second;
  if (!srv.tiered() || !srv.is_up() || draining_.count(node)) co_return;
  auto& pool = cluster_.node(node).memory();
  const auto mark = [&](double f) {
    return static_cast<Bytes>(
        std::llround(f * static_cast<double>(pool.capacity())));
  };
  const Bytes threshold = mark(monitor_threshold_);
  const Bytes floor =
      mark(std::max(0.0, monitor_threshold_ - kDemoteHeadroom));
  const SimTime t0 = cluster_.sim().now();
  std::size_t demoted = 0;
  bool tier_full = false;
  // Snapshot the coldest-first order once: victims are a prefix of it.
  for (const auto& key : srv.demotion_order()) {
    if (pool.used() <= floor) break;
    const Status st = co_await srv.demote_key(key);
    if (st.ok()) {
      ++demoted;
      continue;
    }
    if (st.code() == Errc::out_of_memory) {
      tier_full = true;
      break;
    }
    if (st.code() == Errc::unavailable || st.code() == Errc::io_error)
      co_return;  // node died mid-pass; crash handling owns it now
    // not_found: the key raced a delete/migration -- try the next one.
  }
  cluster_.obs()
      .metrics.histogram("fs.victim_reclaim.latency")
      .add(cluster_.sim().now() - t0);
  LOG_INFO("fs") << "node " << node << " pressure: demoted " << demoted
                 << " keys (" << format_bytes(srv.tier_bytes())
                 << " cold)" << (tier_full ? ", tier full" : "");
  if (tier_full && pool.used() >= threshold && srv.is_up() &&
      draining_.count(node) == 0) {
    // The tier refused with hot bytes still resident: demotion cannot
    // relieve the pressure, so fall back to the full reclaim protocol.
    // (A node whose hot store simply ran dry is NOT escalated -- its pool
    // contribution is already zero, and evicting cold-resident data frees
    // no tenant memory.)
    start_evacuation(node);
  }
}

// --- fault handling ----------------------------------------------------------

void FileSystem::attach_fault_injector(cluster::FaultInjector& injector) {
  injector_ = &injector;
  injector.on_crash([this](NodeId n) { handle_crash(n); });
  injector.on_stall([this](NodeId n, SimTime d) {
    if (auto it = servers_.find(n); it != servers_.end())
      it->second->stall_for(d);
  });
  injector.on_revoke([this](std::uint32_t cls) { handle_revoke(cls); });
  injector.on_evict([this](NodeId n) { handle_evict(n); });
}

std::vector<std::pair<InodeId, std::size_t>> FileSystem::collect_affected(
    const std::vector<std::string>& keys) const {
  std::set<std::pair<InodeId, std::size_t>> uniq;
  for (const auto& k : keys) {
    if (auto ref = Namespace::parse_stripe_key(k))
      uniq.emplace(ref->inode, ref->stripe);
  }
  return {uniq.begin(), uniq.end()};
}

void FileSystem::handle_crash(NodeId node) {
  auto it = servers_.find(node);
  if (it == servers_.end() ||
      it->second->liveness() == kvstore::Liveness::down)
    return;
  // Snapshot what the node held *before* the crash wipes it: afterwards
  // neither the data nor the HRW answer "what was here" exists.
  PendingFailure pf;
  pf.at = cluster_.sim().now();
  pf.affected = collect_affected(it->second->all_keys());
  it->second->crash();
  ++recovery_.failures_handled;
  pending_failures_[node] = std::move(pf);
  // Nobody notices instantly: membership removal + repair start when the
  // failure detector fires, or earlier via a client's report_suspect.
  // Reads in the gap exercise the timeout/fallback paths.
  cluster_.sim().schedule(config_.failure_detect_delay,
                          [this, node] { detect_failure(node); });
}

void FileSystem::report_suspect(NodeId node) {
  auto it = servers_.find(node);
  if (it == servers_.end()) return;
  // Ground truth check: a stalled or merely slow server must never be
  // evicted on a timeout alone.
  if (it->second->liveness() != kvstore::Liveness::down) return;
  detect_failure(node);
}

void FileSystem::detect_failure(NodeId node) {
  auto it = pending_failures_.find(node);
  if (it == pending_failures_.end()) return;  // already handled
  PendingFailure pf = std::move(it->second);
  pending_failures_.erase(it);
  LOG_INFO("fs") << "node " << node << " declared failed ("
                 << pf.affected.size() << " stripes affected)";
  retire_node(node);
  cluster_.sim().spawn(recover(std::move(pf.affected), pf.at));
}

void FileSystem::set_resilience_tuning(BreakerConfig breaker,
                                       double hedge_quantile,
                                       std::uint64_t hedge_min_samples) {
  config_.breaker = breaker;
  config_.hedge_quantile = hedge_quantile;
  config_.hedge_min_samples = hedge_min_samples;
  health_.set_config(breaker);
}

SimTime FileSystem::hedge_delay() const {
  if (config_.hedge_quantile <= 0.0) return 0.0;
  const auto& h =
      cluster_.obs().metrics.histogram("fs.read_stripe.latency");
  if (h.count() < config_.hedge_min_samples) return 0.0;
  return h.quantile(config_.hedge_quantile);
}

void FileSystem::retire_node(NodeId node) {
  auto cls_it = node_class_.find(node);
  if (cls_it == node_class_.end()) return;
  const std::uint32_t cls = cls_it->second;
  if (cls == kOwnClass) {
    if (config_.own_nodes.size() <= 1) {
      LOG_ERROR("fs") << "last own node " << node
                      << " failed; filesystem cannot continue";
      return;
    }
    config_.own_nodes.erase(std::remove(config_.own_nodes.begin(),
                                        config_.own_nodes.end(), node),
                            config_.own_nodes.end());
    meta_.set_own_nodes(config_.own_nodes);
  }
  membership_.remove_member(cls, node);
  draining_.erase(node);
}

sim::Task<> FileSystem::recover(
    std::vector<std::pair<InodeId, std::size_t>> affected, SimTime failed_at) {
  const std::string detail = strformat("stripes=%zu", affected.size());
  const Status st = co_await run_targeted_repair(std::move(affected),
                                                 failed_at, "fs.recovery",
                                                 detail);
  if (!st.ok()) {
    LOG_WARN("fs") << "targeted repair incomplete: "
                   << st.error().to_string();
  }
}

sim::Task<Status> FileSystem::run_targeted_repair(
    std::vector<std::pair<InodeId, std::size_t>> affected, SimTime failed_at,
    const char* span, std::string detail) {
  auto report = co_await repair_affected(std::move(affected));
  ++recovery_.repairs;
  recovery_.stripes_repaired += report.stripes_repaired;
  recovery_.bytes_re_replicated += report.bytes_moved;
  recovery_.total_repair_time += cluster_.sim().now() - failed_at;
  auto& obs = cluster_.obs();
  obs.metrics.histogram("fs.recovery.latency")
      .add(cluster_.sim().now() - failed_at);
  if (obs.tracer.enabled(obs::Component::cluster)) {
    obs.tracer.span(
        obs::Component::cluster, kInvalidNode, span, failed_at,
        detail + strformat(" repaired=%zu", report.stripes_repaired));
  }
  co_return report.status;
}

void FileSystem::handle_revoke(std::uint32_t class_id) {
  cluster_.sim().spawn(
      [](FileSystem& fs, std::uint32_t cls) -> sim::Task<> {
        const Status st =
            co_await fs.revoke_victim_class(cls, fs.config_.revocation_grace);
        if (!st.ok()) {
          LOG_WARN("fs") << "revocation of class " << cls
                         << " lost data: " << st.error().to_string();
        }
      }(*this, class_id));
}

sim::Task<Status> FileSystem::revoke_victim_class(std::uint32_t class_id,
                                                  SimTime grace) {
  if (class_id == kOwnClass)
    co_return Status{Errc::invalid_argument, "cannot revoke the own class"};
  if (!membership_.has_class(class_id) ||
      membership_.members(class_id).empty())
    co_return Status{Errc::not_found, strformat("victim class %u", class_id)};
  const std::vector<NodeId> members = membership_.members(class_id);
  const SimTime started = cluster_.sim().now();
  ++recovery_.failures_handled;

  // Snapshot what the class holds before anything is lost: the targeted
  // repair below needs the stripe list even if grace expires and nodes
  // are killed mid-drain.
  std::vector<std::string> keys;
  for (NodeId n : members) {
    auto ks = server(n).all_keys();
    keys.insert(keys.end(), std::make_move_iterator(ks.begin()),
                std::make_move_iterator(ks.end()));
  }
  auto affected = collect_affected(keys);

  // Leave the membership first: select_class skips empty classes, so every
  // lookup -- under any epoch -- resolves to the remaining classes from
  // here on. Reads racing the drain fall back to draining nodes.
  for (NodeId n : members) {
    membership_.remove_member(class_id, n);
    draining_.insert(n);
  }
  LOG_INFO("fs") << "revoking class " << class_id << ": " << members.size()
                 << " nodes, " << affected.size() << " stripes, grace "
                 << grace << "s";

  std::vector<sim::Task<>> drains;
  drains.reserve(members.size());
  for (NodeId n : members) drains.push_back(drain_or_kill(n, grace));
  co_await sim::when_all(cluster_.sim(), std::move(drains));

  co_return co_await run_targeted_repair(std::move(affected), started,
                                         "fs.revoke_class",
                                         strformat("class=%u", class_id));
}

sim::Task<> FileSystem::drain_or_kill(NodeId node, SimTime grace) {
  auto drained = co_await sim::with_timeout(cluster_.sim(),
                                            drain_node(node), grace);
  auto& srv = server(node);
  if (!drained) {
    LOG_WARN("fs") << "node " << node
                   << " not drained within grace; killing it";
    srv.crash();  // leftover keys are lost; targeted repair restores them
  } else if (srv.liveness() != kvstore::Liveness::down) {
    srv.close();
  }
  draining_.erase(node);
}

sim::Task<Status> FileSystem::drain_node(NodeId node) {
  auto& src = server(node);
  Status result{};
  for (const auto& k : src.all_keys()) {
    if (auto ref = Namespace::parse_stripe_key(k);
        ref && !meta_.ns().stat(ref->inode).ok()) {
      // Unlinked mid-drain: drop the key rather than park an orphan.
      (void)co_await src.del(node, config_.auth_token, k);
      continue;
    }
    const NodeId dst = drain_target(k, node);
    if (dst == kInvalidNode) continue;  // redundant copy: drop it
    if (auto st = co_await src.migrate_key(config_.auth_token, k,
                                           server(dst));
        !st.ok() && st.code() != Errc::not_found)
      result = st;
  }
  co_return result;
}

NodeId FileSystem::drain_target(const std::string& key, NodeId src) {
  const auto live = [&](NodeId n) {
    auto it = servers_.find(n);
    return n != src && it != servers_.end() && it->second->is_up() &&
           draining_.count(n) == 0;
  };
  // Placement-correct home: parse the key back to its file, rank under the
  // file's epoch (the revoked class is empty, so select_class falls back),
  // and land on the first live node in holder-search order that lacks the
  // key. A shard key names one copy, so only that shard's home comes first.
  if (auto ref = Namespace::parse_stripe_key(key)) {
    if (auto st = meta_.ns().stat(ref->inode); st.ok()) {
      const ClassHrwPolicy policy = policy_for_epoch(st.value().attr.epoch);
      const std::uint64_t base =
          Namespace::stripe_key_digest(ref->inode, ref->stripe);
      const auto order = policy.probe_order(base);
      std::span<const NodeId> homes;
      const auto nodes = home_nodes(policy, st.value().attr, base);
      if (!ref->is_shard)
        homes = nodes;
      else if (ref->shard < nodes.size())
        homes = std::span(nodes).subspan(ref->shard, 1);
      HolderSearch search(*this, homes, order);
      for (NodeId n; (n = search.next()) != kInvalidNode;) {
        if (live(n) &&
            !servers_.at(n)->resident_size(config_.auth_token, key).ok())
          return n;
      }
      return kInvalidNode;  // every expected holder already has it
    }
  }
  // Foreign key: park it on the own class.
  const auto& own = membership_.members(kOwnClass);
  if (own.empty()) return kInvalidNode;
  const NodeId n = hash::hrw_select(hash::key_digest(key), own);
  return live(n) ? n : kInvalidNode;
}

void FileSystem::handle_evict(NodeId node) {
  auto it = servers_.find(node);
  if (it == servers_.end() || draining_.count(node) ||
      it->second->liveness() == kvstore::Liveness::down)
    return;
  ++recovery_.failures_handled;
  const SimTime started = cluster_.sim().now();
  auto affected = collect_affected(it->second->all_keys());
  cluster_.sim().spawn(
      [](FileSystem& fs, NodeId n, SimTime t0,
         std::vector<std::pair<InodeId, std::size_t>> aff) -> sim::Task<> {
        // The tenant wants its memory back within the grace window; an
        // evacuation that overruns it is cut short.
        auto done = co_await sim::with_timeout(
            fs.cluster_.sim(), fs.evacuate_victim(n),
            fs.config_.revocation_grace);
        // Reclaim stall as the tenant experiences it: from the pressure
        // event to the point its memory is free again (drained or killed).
        fs.cluster_.obs()
            .metrics.histogram("fs.victim_reclaim.latency")
            .add(fs.cluster_.sim().now() - t0);
        if (!done) {
          LOG_WARN("fs") << "eviction of node " << n
                         << " exceeded grace; killing it";
          fs.server(n).crash();
          fs.draining_.erase(n);
        }
        co_await fs.recover(std::move(aff), t0);
      }(*this, node, started, std::move(affected)));
}

NodeId HolderSearch::next() {
  while (pos_ < homes_.size() + order_.size()) {
    const std::size_t i = pos_++;
    const bool home = i < homes_.size();
    const NodeId n = home ? homes_[i] : order_[i - homes_.size()];
    if ((home || std::ranges::find(homes_, n) == homes_.end()) &&
        fs_.has_server(n))
      return n;
  }
  // Walk the live drain set the way a range-for would: step past the
  // previous candidate only when asked for the next one.
  const auto& draining = fs_.draining_nodes();
  if (!in_drain_) {
    in_drain_ = true;
    drain_ = draining.begin();
  } else if (drain_ != draining.end()) {
    ++drain_;
  }
  for (; drain_ != draining.end(); ++drain_)
    if (fs_.has_server(*drain_)) return *drain_;
  return kInvalidNode;
}

}  // namespace memfss::fs
