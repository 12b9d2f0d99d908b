// TokenBucket: the admission-rate primitive behind per-tenant QoS
// (DESIGN.md §12). A bucket refills continuously at `rate` tokens per
// second up to `burst` tokens; an operation that needs n tokens is
// admitted iff the bucket holds at least n at that moment. rate <= 0
// means unlimited (every take succeeds, no state).
//
// Time is passed in by the caller (seconds on whatever monotonic clock
// it likes) rather than read from a clock here, so tests drive the
// bucket deterministically and the registry can stamp one clock read
// across several buckets. The bucket is NOT internally synchronized --
// rt::TenantRegistry serializes access under its per-tenant mutex.
#pragma once

#include <algorithm>

namespace memfss::rt {

class TokenBucket {
 public:
  TokenBucket() = default;
  /// rate <= 0 disables limiting. burst <= 0 defaults to max(rate, 1)
  /// (one second of headroom, never less than one whole op).
  TokenBucket(double rate, double burst)
      : rate_(rate),
        burst_(rate > 0.0 ? (burst > 0.0 ? burst : std::max(rate, 1.0))
                          : 0.0),
        tokens_(burst_) {}

  bool unlimited() const { return rate_ <= 0.0; }
  double rate() const { return rate_; }
  double burst() const { return burst_; }

  /// Tokens available at `now_s` (after refill). A `now_s` older than
  /// the last refill -- two callers whose clock reads raced their turns
  /// at the lock -- sees the current fill, exactly as try_take() does.
  double available(double now_s) const {
    if (unlimited()) return 0.0;
    return std::min(burst_,
                    tokens_ + std::max(0.0, now_s - last_s_) * rate_);
  }

  /// Admit an op costing `n` tokens at time `now_s`: refill, then take
  /// `n` if the bucket covers it. Returns false (and takes nothing) when
  /// it does not.
  bool try_take(double now_s, double n = 1.0) {
    if (unlimited()) return true;
    refill(now_s);
    if (tokens_ < n) return false;
    tokens_ -= n;
    return true;
  }

  /// Seconds from `now_s` until `n` tokens will have accumulated -- the
  /// retry-after hint handed to a shed client. 0 when already covered.
  double delay_until(double now_s, double n = 1.0) const {
    if (unlimited()) return 0.0;
    const double have = available(now_s);
    if (have >= n) return 0.0;
    return (std::min(n, burst_) - have) / rate_;
  }

 private:
  void refill(double now_s) {
    tokens_ = available(now_s);
    last_s_ = std::max(last_s_, now_s);
  }

  double rate_ = 0.0;    ///< tokens per second; <= 0 = unlimited
  double burst_ = 0.0;   ///< bucket capacity
  double tokens_ = 0.0;  ///< current fill (valid as of last_s_)
  double last_s_ = 0.0;  ///< last refill timestamp
};

}  // namespace memfss::rt
