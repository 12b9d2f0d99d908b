// ServingMetrics: the serving path's fixed instrument table. Every
// counter, gauge and histogram RuntimeServer and TcpServer record is
// declared here once, next to its exported name; per-tenant counters
// live in the tenant's TenantRegistry slot. An update is a relaxed
// atomic add picked by enum, or a histogram add under the histogram's
// own mutex: no update builds a string or looks up a map, and no lock
// is shared with anything else. A worker and a reactor meet only on
// rt.op.latency_s, when the reactor runs an op inline on an idle worker
// -- whose own thread is then asleep.
// Names are built only at read time: snapshot() copies the table into a
// temporary obs::MetricsRegistry (the simulator's rows, kinds and sort
// order; every fixed instrument appears, even at zero). A snapshot taken
// under load is read row by row, not at one instant; once the server is
// quiescent every counter in it is exact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss::rt {

/// Serving counters. The first five follow Op::Type, so an executed
/// verb indexes its own counter. The first kWorkerCounters are written
/// by the thread executing an op (a worker, or a submitter running it
/// inline), the rest by submitters (sheds, inline claims) and reactors.
enum class Counter : std::size_t {
  put, get, del, exists, auth, failed, degraded, ec_puts,
  ec_reconstructed_gets,
  rejected, overloaded, invalid_tenant, inline_ops, net_accepted, net_closed,
  net_accept_errors, net_bytes_in, net_bytes_out, net_frames_in,
  net_frames_out, net_send_calls, net_resets, net_protocol_errors,
  net_slow_client_disconnects, net_idle_reaps,
};
inline constexpr std::size_t kWorkerCounters = 9;
inline constexpr std::array<std::string_view, 25> kCounterNames{
    "rt.ops.put", "rt.ops.get", "rt.ops.del", "rt.ops.exists",
    "rt.ops.auth", "rt.ops.failed", "rt.ops.degraded", "rt.ec.puts",
    "rt.ec.reconstructed_gets",
    "rt.ops.rejected", "rt.ops.overloaded", "rt.ops.invalid_tenant",
    "rt.ops.inline",
    "rt.net.accepted", "rt.net.closed", "rt.net.accept_errors",
    "rt.net.bytes_in", "rt.net.bytes_out", "rt.net.frames_in",
    "rt.net.frames_out", "rt.net.send_calls", "rt.net.resets",
    "rt.net.protocol_errors", "rt.net.slow_client_disconnects",
    "rt.net.idle_reaps"};
static_assert(static_cast<std::size_t>(Counter::net_idle_reaps) + 1 ==
              kCounterNames.size());
/// Storage slot of counter i: executor counters fill [0, 9) and the rest
/// start at 16, two cache lines in, so a worker's updates share no line
/// with a reactor's front-end updates.
constexpr std::size_t counter_slot(std::size_t i) {
  return i < kWorkerCounters ? i : 16 + i - kWorkerCounters;
}

/// A level and its high watermark, settable from any thread.
struct AtomicGauge {
  void set(std::int64_t v) {
    value.store(v, std::memory_order_relaxed);
    raise_peak(v);
  }
  void add(std::int64_t d) {
    raise_peak(value.fetch_add(d, std::memory_order_relaxed) + d);
  }
  /// Peak first: obs::Gauge keeps it across the second set().
  void export_to(obs::Gauge& g) const {
    g.set(static_cast<double>(peak.load()));
    g.set(static_cast<double>(value.load()));
  }
  void raise_peak(std::int64_t v) {
    std::int64_t p = peak.load(std::memory_order_relaxed);
    while (v > p && !peak.compare_exchange_weak(p, v,
                                                std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value{0}, peak{0};
};

/// A histogram behind its own mutex.
class alignas(64) LockedHistogram {
 public:
  void add(double x) {
    std::lock_guard lk(mu_);
    h_.add(x);
  }
  void export_to(obs::Histogram& out) const {
    std::lock_guard lk(mu_);
    out.merge(h_);
  }

 private:
  mutable std::mutex mu_;
  obs::Histogram h_;
};

class ServingMetrics {
 public:
  explicit ServingMetrics(const TenantRegistry& tenants) : tenants_(tenants) {}

  void count(Counter c, std::uint64_t delta = 1) {
    slots_[counter_slot(static_cast<std::size_t>(c))].fetch_add(
        delta, std::memory_order_relaxed);
  }
  AtomicGauge queue_depth;         ///< rt.queue.depth (submitters)
  AtomicGauge connections;         ///< rt.net.connections (reactors)
  LockedHistogram op_latency_s;    ///< rt.op.latency_s (executors)
  LockedHistogram frame_decode_s;  ///< rt.net.frame_decode_s (reactors)

  obs::MetricsSnapshot snapshot() const { return registry()->snapshot(); }
  std::uint64_t counter_value(std::string_view name) const {
    return registry()->counter_value(name);
  }
  obs::HistogramSummary histogram_summary(std::string_view name) const {
    return registry()->histogram_summary(name);
  }

 private:
  std::unique_ptr<obs::MetricsRegistry> registry() const {
    auto reg = std::make_unique<obs::MetricsRegistry>();
    for (std::size_t i = 0; i < kCounterNames.size(); ++i)
      reg->counter(kCounterNames[i]).inc(slots_[counter_slot(i)].load());
    queue_depth.export_to(reg->gauge("rt.queue.depth"));
    connections.export_to(reg->gauge("rt.net.connections"));
    op_latency_s.export_to(reg->histogram("rt.op.latency_s"));
    frame_decode_s.export_to(reg->histogram("rt.net.frame_decode_s"));
    for (std::uint32_t t = 0; t < tenants_.tenant_count(); ++t)
      for (std::size_t c = 0; c < kTenantCounterNames.size(); ++c)
        reg->counter("rt.tenant." + tenants_.name(t) + "." +
                     std::string(kTenantCounterNames[c]))
            .inc(tenants_.counter(t, static_cast<TenantCounter>(c)));
    return reg;
  }

  const TenantRegistry& tenants_;
  alignas(64) std::array<std::atomic<std::uint64_t>,
                         counter_slot(kCounterNames.size())> slots_{};
};

}  // namespace memfss::rt
