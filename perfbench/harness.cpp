#include "harness.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

// --- global allocator replacement -------------------------------------------

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) /
                                          a * a))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

AllocCount::AllocCount() {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}
AllocCount::~AllocCount() { g_counting.store(false, std::memory_order_seq_cst); }
std::uint64_t AllocCount::allocations() const {
  return g_allocations.load(std::memory_order_relaxed);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1),
                       q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Windows::Windows(std::size_t ops_per_window)
    : per_window_(ops_per_window), start_(Clock::now()), cpu_start_(cpu_seconds()) {
  cur_.reserve(per_window_);
}

void Windows::add(double lat_us, Clock::time_point now) {
  cur_.push_back(lat_us);
  if (cur_.size() < per_window_) return;
  secs_.push_back(seconds_between(start_, now));
  p50_.push_back(quantile(cur_, 0.5));
  p99_.push_back(quantile(cur_, 0.99));
  const double cpu = cpu_seconds();
  cpu_us_.push_back((cpu - cpu_start_) * 1e6 / static_cast<double>(per_window_));
  cur_.clear();
  start_ = now;
  cpu_start_ = cpu;
}

void Windows::restart(Clock::time_point now) {
  cur_.clear();
  start_ = now;
  cpu_start_ = cpu_seconds();
}

void Windows::report(Report& r, const std::string& window_name) {
  r.note("samples: " + std::to_string(secs_.size()) + " windows of " +
         std::to_string(per_window_) + " " + window_name +
         "; figures from the fastest decile of windows");
  const double wall = quantile(secs_, 0.1);
  r.add("ops_per_s", static_cast<double>(per_window_) / wall, "1/s");
  r.add("lat_p50_us", quantile(p50_, 0.1), "us");
  r.add("lat_p99_us", quantile(p99_, 0.1), "us");
  r.add("wall_s", wall, "s");
  r.add("proc.cpu_us_per_op", quantile(cpu_us_, 0.1), "us");
}

void SpanLog::record(const char* name, Clock::time_point start,
                     Clock::time_point end) {
  if (!on_) return;
  const std::uint64_t id = next_id_++;
  if (spans_.size() < kMaxSpans) spans_.push_back({name, id, start, end});
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu}}%s\n",
                 s.name, us_between(origin_, s.start),
                 us_between(s.start, s.end),
                 static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"spans_recorded\": %llu}\n",
               static_cast<unsigned long long>(recorded()));
  return std::fclose(f) == 0;
}

std::vector<memfss::kvstore::Blob> make_payloads(std::uint64_t seed,
                                                 std::size_t n,
                                                 std::size_t size) {
  std::vector<memfss::kvstore::Blob> pool;
  pool.reserve(n);
  std::uint64_t x = seed ^ 0x5eed0fba1de5ull;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> bytes(size);
    for (std::size_t j = 0; j < size; j += 8) {
      const std::uint64_t v = memfss::splitmix64(x);
      for (std::size_t b = 0; b < 8 && j + b < size; ++b)
        bytes[j + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    pool.push_back(memfss::kvstore::Blob::materialized(std::move(bytes)));
  }
  return pool;
}

EventWaiter::EventWaiter()
    : event_fd_(::eventfd(0, EFD_CLOEXEC)), epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (event_fd_ < 0 || epoll_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    throw std::runtime_error("eventfd/epoll setup failed");
  }
}

EventWaiter::~EventWaiter() {
  ::close(epoll_fd_);
  ::close(event_fd_);
}

void EventWaiter::notify() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof(one));
}

void EventWaiter::wait() {
  epoll_event out{};
  while (::epoll_wait(epoll_fd_, &out, 1, -1) != 1) {
  }
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(event_fd_, &count, sizeof(count));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void Report::fail(const std::string& why) {
  ++failed;
  correct = false;
  if (reported_failures_++ < 10) std::fprintf(stderr, "FAIL: %s\n", why.c_str());
}

}  // namespace perfbench
