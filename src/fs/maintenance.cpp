// Maintenance operations: active rebalance and redundancy repair.
//
// Rebalance is the eager complement of the paper's lazy data movement:
// after a victim class changes the placement epoch, files written under
// older epochs still resolve (their metadata records the old weights),
// but their stripes live where the old epoch put them. rebalance_all()
// migrates every such file to the current epoch's placement and advances
// its metadata epoch -- after it completes, no read ever probes below
// rank 0 again.
//
// Repair restores redundancy after a node loss: replicated files get
// missing copies re-streamed from a survivor; erasure files get missing
// shards rebuilt (real Reed-Solomon reconstruction for materialized
// data; size-accounting recreation for ghost data).
#include <algorithm>
#include <set>

#include "common/log.hpp"
#include "erasure/reed_solomon.hpp"
#include "fs/filesystem.hpp"
#include "fs/namespace.hpp"
#include "hash/hashes.hpp"

namespace memfss::fs {

sim::Task<FileSystem::MaintenanceReport> FileSystem::rebalance_all() {
  MaintenanceReport report;
  const NodeId admin = config_.own_nodes.front();
  const std::uint32_t target_epoch = current_epoch();
  const ClassHrwPolicy target = policy_for_epoch(target_epoch);

  for (const auto& [path, st] : meta_.ns().list_files()) {
    ++report.files_scanned;
    if (st.attr.epoch == target_epoch) continue;
    const ClassHrwPolicy old = policy_for_epoch(st.attr.epoch);

    bool moved_any = false;
    for (std::size_t i = 0; i < st.stripe_count; ++i) {
      const std::string key = Namespace::stripe_key(st.inode, i);
      const std::uint64_t digest = Namespace::stripe_key_digest(st.inode, i);
      const auto old_nodes = home_nodes(old, st.attr, digest);
      const auto new_nodes = home_nodes(target, st.attr, digest);
      if (st.attr.redundancy == RedundancyMode::erasure) {
        // Each shard moves from its old home to its new one.
        for (std::size_t j = 0; j < old_nodes.size() && j < new_nodes.size();
             ++j) {
          const NodeId src = old_nodes[j], dst = new_nodes[j];
          if (src == dst || !has_server(src) || !has_server(dst)) continue;
          const std::string sk = Namespace::shard_key(key, j);
          auto sz = server(src).resident_size(config_.auth_token, sk);
          if (!sz.ok()) continue;  // not there (already moved / lost)
          auto stt = co_await server(src).migrate_key(config_.auth_token,
                                                      sk, server(dst));
          if (stt.ok()) {
            ++report.stripes_moved;
            report.bytes_moved += sz.value();
            moved_any = true;
          }
        }
      } else {
        if (old_nodes == new_nodes) continue;
        // Source: any old holder that still has the stripe.
        NodeId holder = kInvalidNode;
        Bytes size = 0;
        for (NodeId n : old_nodes) {
          if (!has_server(n)) continue;
          auto sz = server(n).resident_size(config_.auth_token, key);
          if (sz.ok()) {
            holder = n;
            size = sz.value();
            break;
          }
        }
        if (holder == kInvalidNode) continue;  // lazy move already done
        for (NodeId dst : new_nodes) {
          if (std::ranges::count(old_nodes, dst) || !has_server(dst)) continue;
          auto stt = co_await server(holder).replicate_key(
              config_.auth_token, key, server(dst));
          if (stt.ok()) {
            ++report.stripes_moved;
            report.bytes_moved += size;
            moved_any = true;
          } else if (report.status.ok()) {
            report.status = stt;
          }
        }
        for (NodeId src : old_nodes) {
          if (std::ranges::count(new_nodes, src) || !has_server(src)) continue;
          (void)co_await server(src).del(admin, config_.auth_token, key);
        }
      }
    }
    auto stt = co_await meta_.set_epoch(admin, st.inode, target_epoch);
    if (!stt.ok() && report.status.ok()) report.status = stt;
    if (moved_any) ++report.files_updated;
  }
  LOG_INFO("fs") << "rebalance: " << report.stripes_moved
                 << " stripes moved, " << report.files_updated
                 << " files updated";
  co_return report;
}

sim::Task<> FileSystem::repair_stripe(const ClassHrwPolicy& policy,
                                      const Stat& st,
                                      std::size_t stripe_index,
                                      MaintenanceReport& report) {
  const NodeId admin = config_.own_nodes.front();
  const std::string key = Namespace::stripe_key(st.inode, stripe_index);
  const std::uint64_t digest =
      Namespace::stripe_key_digest(st.inode, stripe_index);
  const auto order = policy.probe_order(digest);
  // The first node in holder-search order that holds `k`.
  const auto find_holder = [&](std::span<const NodeId> expected,
                               const std::string& k) {
    HolderSearch search(*this, expected, order);
    NodeId n;
    while ((n = search.next()) != kInvalidNode &&
           !server(n).resident_size(config_.auth_token, k).ok()) {
    }
    return n;
  };
  if (st.attr.redundancy == RedundancyMode::replicated) {
    const auto homes = home_nodes(policy, st.attr, digest);
    std::vector<NodeId> missing;
    for (NodeId n : homes) {
      if (has_server(n) &&
          !server(n).resident_size(config_.auth_token, key).ok())
        missing.push_back(n);
    }
    const NodeId holder = find_holder(homes, key);
    if (holder == kInvalidNode) {
      if (report.status.ok())
        report.status = {Errc::corruption, "all copies lost: " + key};
      co_return;
    }
    const Bytes size =
        server(holder).resident_size(config_.auth_token, key).value();
    for (NodeId dst : missing) {
      if (!meta_.ns().stat(st.inode).ok()) co_return;  // unlinked meanwhile
      auto stt = co_await server(holder).replicate_key(config_.auth_token,
                                                       key, server(dst));
      if (stt.ok()) {
        ++report.stripes_repaired;
        report.bytes_moved += size;
      }
    }
  } else {  // erasure
    const auto homes = stripe_homes(policy, st.attr, key, digest);
    if (homes.empty()) co_return;
    const std::size_t k = st.attr.ec_k, m = st.attr.ec_m;
    std::vector<std::pair<std::size_t, kvstore::Blob>> have;
    std::vector<std::size_t> missing;
    for (std::size_t j = 0; j < homes.size(); ++j) {
      const NodeId holder = find_holder({&homes[j].node, 1}, homes[j].key);
      bool found = false;
      if (holder != kInvalidNode) {
        auto r = co_await server(holder).get(admin, config_.auth_token,
                                             homes[j].key);
        if (r.ok()) {
          have.emplace_back(j, std::move(r.value()));
          found = true;
        }
      }
      if (!found) missing.push_back(j);
    }
    if (missing.empty()) co_return;
    if (have.size() < k) {
      if (report.status.ok())
        report.status = {Errc::corruption,
                         "fewer than k shards survive: " + key};
      co_return;
    }
    const bool ghost = have.front().second.is_ghost();
    std::vector<std::vector<std::uint8_t>> slots;
    erasure::ReedSolomon rs(std::max<std::size_t>(1, k), m);
    if (!ghost) {
      slots.assign(k + m, {});
      for (auto& [j, b] : have)
        slots[j].assign(b.bytes().begin(), b.bytes().end());
      if (auto stt = rs.reconstruct(slots); !stt.ok()) {
        if (report.status.ok()) report.status = stt;
        co_return;
      }
    }
    // Reconstruction happens on the admin node's CPU.
    const Bytes ss = have.front().second.size();
    co_await cluster_.node(admin).cpu().consume(
        0.6e-9 * static_cast<double>(ss) * static_cast<double>(k), 1.0);
    for (std::size_t j : missing) {
      const auto& [dst, sk] = homes[j];
      if (!has_server(dst)) continue;
      if (!meta_.ns().stat(st.inode).ok()) co_return;  // unlinked meanwhile
      kvstore::Blob shard = ghost ? kvstore::Blob::ghost(ss, 0)
                                  : kvstore::Blob::materialized(slots[j]);
      auto stt = co_await server(dst).put(admin, config_.auth_token, sk,
                                          std::move(shard));
      if (stt.ok()) {
        ++report.stripes_repaired;
        report.bytes_moved += ss;
      }
    }
  }
}

sim::Task<FileSystem::MaintenanceReport> FileSystem::repair_all() {
  MaintenanceReport report;
  for (const auto& [path, st] : meta_.ns().list_files()) {
    ++report.files_scanned;
    if (st.attr.redundancy == RedundancyMode::none) continue;
    const ClassHrwPolicy policy = policy_for_epoch(st.attr.epoch);
    auto& repair_hist = cluster_.obs().metrics.histogram("fs.repair.latency");
    for (std::size_t i = 0; i < st.stripe_count; ++i) {
      const SimTime t0 = cluster_.sim().now();
      co_await repair_stripe(policy, st, i, report);
      repair_hist.add(cluster_.sim().now() - t0);
    }
  }
  LOG_INFO("fs") << "repair: " << report.stripes_repaired
                 << " stripes repaired";
  co_return report;
}

sim::Task<FileSystem::MaintenanceReport> FileSystem::repair_affected(
    std::vector<std::pair<InodeId, std::size_t>> stripes) {
  MaintenanceReport report;
  std::set<InodeId> files_seen;
  auto& repair_hist = cluster_.obs().metrics.histogram("fs.repair.latency");
  for (const auto& [ino, idx] : stripes) {
    auto st = meta_.ns().stat(ino);
    if (!st.ok()) continue;  // unlinked since the failure
    if (files_seen.insert(ino).second) ++report.files_scanned;
    if (st.value().attr.redundancy == RedundancyMode::none) continue;
    if (idx >= st.value().stripe_count) continue;
    const ClassHrwPolicy policy = policy_for_epoch(st.value().attr.epoch);
    const SimTime t0 = cluster_.sim().now();
    co_await repair_stripe(policy, st.value(), idx, report);
    repair_hist.add(cluster_.sim().now() - t0);
  }
  LOG_INFO("fs") << "targeted repair: " << stripes.size()
                 << " stripes checked, " << report.stripes_repaired
                 << " restored";
  co_return report;
}

sim::Task<FileSystem::MaintenanceReport> FileSystem::scrub_all() {
  MaintenanceReport report;
  const NodeId admin = config_.own_nodes.front();

  for (const auto& [path, st] : meta_.ns().list_files()) {
    ++report.files_scanned;
    const ClassHrwPolicy policy = policy_for_epoch(st.attr.epoch);
    for (std::size_t i = 0; i < st.stripe_count; ++i) {
      const std::string key = Namespace::stripe_key(st.inode, i);
      const std::uint64_t digest = Namespace::stripe_key_digest(st.inode, i);
      for (const auto& [node, ck] :
           stripe_homes(policy, st.attr, key, digest)) {
        if (!has_server(node)) continue;
        // The verification read is charged like any client read.
        auto r = co_await server(node).get(admin, config_.auth_token, ck);
        if (!r.ok()) continue;  // absence is repair's business, not ours
        if (r.value().verify()) continue;
        ++report.corruptions_found;
        LOG_WARN("fs") << "scrub: corrupt copy of " << ck << " on node "
                       << node;
        (void)co_await server(node).del(admin, config_.auth_token, ck);
        if (st.attr.redundancy == RedundancyMode::none &&
            report.status.ok()) {
          report.status = {Errc::corruption,
                           "unredundant stripe lost: " + key};
        }
      }
    }
  }
  // Restore redundancy for everything the scrub dropped.
  if (report.corruptions_found > 0) {
    auto repair = co_await repair_all();
    report.stripes_repaired = repair.stripes_repaired;
    if (report.status.ok()) report.status = repair.status;
  }
  LOG_INFO("fs") << "scrub: " << report.corruptions_found
                 << " corrupt copies dropped, " << report.stripes_repaired
                 << " restored";
  co_return report;
}

}  // namespace memfss::fs
