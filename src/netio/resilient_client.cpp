#include "netio/resilient_client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "hash/hashes.hpp"

namespace memfss::netio {

namespace {

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_s(double s) {
  if (s > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Failures a fresh attempt cannot fix: retrying the identical request
/// is pointless, surface them immediately.
bool permanent_errc(Errc e) {
  return e == Errc::permission || e == Errc::invalid_argument ||
         e == Errc::fatal;
}

}  // namespace

ResilientClient::ResilientClient(ResilientOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed) {}

void ResilientClient::disconnect() { net_.close(); }

void ResilientClient::record(Errc e) {
  if (breaker_.record(opts_.breaker, errc_health_fault(e), mono_s()))
    ++stats_.breaker_opens;
}

Status ResilientClient::ensure_connected(double remaining_s) {
  if (Status st = net_.connect(opts_.port); !st.ok()) return st;
  net_.set_recv_timeout(
      std::clamp(remaining_s, 1e-3, opts_.attempt_recv_timeout_s));
  if (!opts_.auth_token.empty()) {
    // AUTH ids live in a private high range so they can never collide
    // with caller-chosen request ids.
    const Frame auth = NetClient::make_auth((1ull << 63) | ++auth_id_,
                                            opts_.auth_token);
    if (Status st = net_.send(auth); !st.ok()) {
      net_.abort();
      return st;
    }
    Result<Frame> r = net_.recv();
    if (!r.ok()) {
      net_.abort();
      return r.error();
    }
    const Frame& f = r.value();
    if ((f.flags & kFlagProtocolError) != 0 ||
        f.request_id != auth.request_id) {
      net_.abort();
      return {Errc::io_error, "bad auth response"};
    }
    if (static_cast<Errc>(f.status) != Errc::ok) {
      net_.close();
      return {static_cast<Errc>(f.status), "auth rejected"};
    }
  }
  ++stats_.reconnects;
  return {};
}

CallOutcome ResilientClient::call(const Frame& request, bool idempotent,
                                  double deadline_s) {
  if (deadline_s <= 0) deadline_s = opts_.default_deadline_s;
  const double start = mono_s();
  const auto remaining = [&] { return deadline_s - (mono_s() - start); };

  CallOutcome out;
  Errc last_fail = Errc::timeout;
  int fault_streak = 0;

  // Back off (bounded by the deadline) after a failed attempt; returns
  // false once the budget is spent. Full +/- jitter so a fleet of
  // clients doesn't reconnect in lockstep.
  const auto backoff = [&]() -> bool {
    const double rem = remaining();
    if (rem <= 0) return false;
    sleep_s(std::min(backoff_delay(opts_.backoff_base_s, opts_.backoff_max_s,
                                   fault_streak++,
                                   2 * rng_.next_double() - 1),
                     rem));
    return remaining() > 0;
  };
  // An attempt failed after its bytes may have reached the server: drop
  // the connection, record `fault`, and back off for a retry if the op
  // is idempotent. False = give up with `fail`.
  const auto retry_after = [&](Errc fault, Errc fail) -> bool {
    net_.abort();
    record(fault);
    last_fail = fail;
    return idempotent && backoff();
  };

  for (;;) {
    // The deadline check precedes the breaker gate: a half-open trial,
    // once admitted, must record an outcome, or the breaker would stay
    // half-open and reject every later call.
    if (remaining() <= 0) break;
    // Circuit breaker gate: while open, reject locally (no socket
    // traffic) until the cooldown elapses, then admit one trial.
    if (!breaker_.allow(opts_.breaker, mono_s())) {
      ++stats_.breaker_rejections;
      const double wait =
          breaker_.opened_at() + opts_.breaker.cooldown - mono_s();
      if (remaining() - wait <= 0) {
        out.code = Errc::rejected;
        return out;
      }
      sleep_s(wait);
      continue;
    }

    if (!net_.connected()) {
      if (Status st = ensure_connected(remaining()); !st.ok()) {
        ++stats_.connect_failures;
        record(st.code());
        last_fail = st.code();
        if (permanent_errc(st.code()) || !backoff()) break;
        continue;
      }
    }

    ++out.attempts;
    ++stats_.attempts;
    if (out.attempts > 1) ++stats_.retries;

    // Past this point bytes may reach the server even on failure, so a
    // non-idempotent op can no longer be blindly retried.
    ++out.sends;
    if (Status st = net_.send(request); !st.ok()) {
      if (!retry_after(st.code(), st.code())) break;
      continue;
    }

    net_.set_recv_timeout(
        std::clamp(remaining(), 1e-3, opts_.attempt_recv_timeout_s));
    Result<Frame> r = net_.recv();
    if (!r.ok()) {
      // The request may still be in flight server-side: the abort sends
      // an RST so a late response can't leak into the next call. A
      // corrupted frame is never surfaced softly.
      const Errc e = r.code();
      if (e == Errc::corruption) ++stats_.corrupt_frames;
      if (e == Errc::timeout) ++stats_.timeouts;
      const bool corrupt = e == Errc::corruption;
      if (!retry_after(corrupt ? Errc::io_error : e,
                       corrupt ? Errc::fatal : e))
        break;
      continue;
    }

    Frame resp = std::move(r).value();
    if ((resp.flags & kFlagProtocolError) != 0) {
      // The server's decoder rejected the stream. With one request in
      // flight ours was never executed, but the channel is gone.
      ++stats_.protocol_errors;
      if (!retry_after(Errc::io_error, Errc::fatal)) break;
      continue;
    }
    if (resp.request_id != request.request_id) {
      ++stats_.mismatched_ids;
      if (!retry_after(Errc::io_error, Errc::fatal)) break;
      continue;
    }

    const Errc code = static_cast<Errc>(resp.status);
    if (code == Errc::overloaded) {
      // A deliberate QoS shed: the server is healthy and nothing was
      // applied, so honoring the hint and retrying is safe for any op.
      ++stats_.overloaded_waits;
      record(code);
      fault_streak = 0;
      const double hint = resp.retry_after_us > 0
                              ? resp.retry_after_us / 1e6
                              : opts_.backoff_base_s;
      if (remaining() - hint <= 0) {
        out.code = code;
        out.response = std::move(resp);
        out.answered = true;
        return out;
      }
      sleep_s(hint);
      continue;
    }

    if (code == Errc::ok &&
        request.opcode == static_cast<std::uint8_t>(Opcode::get) &&
        !resp.value.empty()) {
      // End-to-end integrity: the payload must hash to the checksum the
      // store computed at PUT time. A mismatch that slipped past the
      // frame checksum is still never surfaced as data.
      if (hash::crc32c(resp.value.data(), resp.value.size()) !=
          resp.checksum) {
        ++stats_.value_checksum_failures;
        if (!retry_after(Errc::io_error, Errc::fatal)) break;
        continue;
      }
    }

    record(code);
    out.code = code;
    out.response = std::move(resp);
    out.answered = true;
    return out;
  }
  out.code = last_fail;
  return out;
}

}  // namespace memfss::netio
