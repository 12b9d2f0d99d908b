// Shared plumbing for the repository benchmark (perfbench/README.md):
// clocks and sample statistics, the allocation counter behind the
// *.allocs_per_* metrics, the span log a traced run writes at exit,
// getrusage readings, and the metric report each workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "kvstore/blob.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median / arbitrary quantile of `v` (reorders it). 0 when empty.
double quantile(std::vector<double>& v, double q);
double mean(const std::vector<double>& v);

struct Report;

/// Wall-clock figures of a measured phase, cut into windows of a fixed
/// number of ops. Other tenants of a shared host only ever slow a
/// window down (CPU steal, wakeups delayed behind a descheduled vCPU),
/// so each figure is read from the fastest decile of windows: the 10th
/// percentile of window seconds, of each window's own p50 and p99
/// latency, and of each window's process CPU per op. A window of N ops
/// has N/100 samples beyond its p99.
class Windows {
 public:
  explicit Windows(std::size_t ops_per_window);
  /// One completed op with its latency, completed at `now`.
  void add(double lat_us, Clock::time_point now);
  void restart(Clock::time_point now);  ///< drop a partial window
  /// Adds ops_per_s, lat_p50_us, lat_p99_us, wall_s (the window time)
  /// and proc.cpu_us_per_op to `r`, with a note of the sample counts.
  void report(Report& r, const std::string& window_name);

 private:
  std::size_t per_window_;
  Clock::time_point start_;
  double cpu_start_;
  std::vector<double> cur_;
  std::vector<double> secs_, p50_, p99_, cpu_us_;
};

// --- allocation counting ---------------------------------------------------
// The benchmark binary replaces global operator new/delete. Counting is
// off by default so the end-to-end passes pay one relaxed load per
// allocation; the per-layer passes switch it on around a fixed op
// prefix, so the counts are a function of the seed alone.
struct AllocCount {
  AllocCount();   ///< resets the counter and starts counting
  ~AllocCount();  ///< stops counting
  AllocCount(const AllocCount&) = delete;
  AllocCount& operator=(const AllocCount&) = delete;
  std::uint64_t allocations() const;
};

// --- spans -----------------------------------------------------------------
/// One timed call into a layer, or one op of a traced closed loop.
struct Span {
  const char* name;
  std::uint64_t id;
  Clock::time_point start, end;
};

/// In-memory span log of a traced run; written as Chrome trace JSON at
/// exit. Bounded: past `kMaxSpans` spans are counted, not kept.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  void enable(bool on) { on_ = on; }
  /// Record a finished span (no-op while disabled).
  void record(const char* name, Clock::time_point start, Clock::time_point end);
  std::uint64_t recorded() const { return next_id_ - 1; }
  /// Write the kept spans as Chrome trace JSON; false on I/O error.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::uint64_t next_id_ = 1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Time `fn()` and, when the log is on, record it as span `name`.
/// Returns the elapsed microseconds.
template <class Fn>
double timed(SpanLog& log, const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  log.record(name, t0, t1);
  return us_between(t0, t1);
}

/// `n` distinct seeded payloads of `size` bytes: the values KV puts
/// write. The reference model stores an index into this pool per key.
std::vector<memfss::kvstore::Blob> make_payloads(std::uint64_t seed,
                                                 std::size_t n,
                                                 std::size_t size);

/// A one-shot wakeup the way the TcpServer reactor receives completions:
/// notify() writes an eventfd, wait() sleeps in epoll_wait on it. The
/// per-layer probes of RuntimeServer block on this, so the measured
/// handoff includes the same wakeup the socket path pays.
class EventWaiter {
 public:
  EventWaiter();
  ~EventWaiter();
  EventWaiter(const EventWaiter&) = delete;
  EventWaiter& operator=(const EventWaiter&) = delete;
  void notify();
  void wait();

 private:
  int event_fd_ = -1;
  int epoll_fd_ = -1;
};

/// Mean of per-call microseconds of `fn(i)` over `ops` indices, cycled
/// until `budget_s` elapses.
template <class Fn>
double per_call_us(SpanLog& log, const char* span, std::size_t ops,
                   double budget_s, Fn&& fn) {
  double total = 0;
  std::size_t calls = 0;
  const auto stop = Clock::now() + std::chrono::duration<double>(budget_s);
  do {
    for (std::size_t i = 0; i < ops; ++i, ++calls)
      total += timed(log, span, [&] { fn(i); });
  } while (Clock::now() < stop);
  return total / static_cast<double>(calls);
}

// --- process resources -----------------------------------------------------
double peak_rss_mib();  ///< getrusage ru_maxrss of this process
double cpu_seconds();   ///< user + system CPU of this process so far

// --- report ----------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run produced: the verdict, op counts and the
/// metrics the requested mode prints.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines (sample counts)

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Record a failed check (wrong answer, lost reply, ...).
  void fail(const std::string& why);

 private:
  std::uint64_t reported_failures_ = 0;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< span file for traced runs ("" = none)
};

/// Fill `r` with the end-to-end metrics (untraced) or the per-layer
/// metrics of the layers this workload exercises (traced).
void run_tcp_kv(const RunArgs& a, SpanLog& log, Report& r);
void run_inproc_ec(const RunArgs& a, SpanLog& log, Report& r);
void run_sim_fig2(const RunArgs& a, SpanLog& log, Report& r);

}  // namespace perfbench
