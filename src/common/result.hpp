// A small Result<T> type: success value or an error code + message.
// Used across module boundaries where exceptions would obscure control flow
// (the C++ Core Guidelines E.* rules: errors that are expected outcomes of
// an operation -- missing file, out of memory budget -- are values).
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace memfss {

enum class Errc {
  ok = 0,
  not_found,        ///< key / path / inode does not exist
  already_exists,   ///< create on an existing path
  out_of_memory,    ///< store memory cap exceeded
  permission,       ///< auth failure / unauthorized client
  invalid_argument, ///< malformed request
  not_a_directory,  ///< path component is a file
  is_a_directory,   ///< file operation on a directory
  not_empty,        ///< rmdir on a non-empty directory
  unavailable,      ///< node down / evacuated / store closed
  io_error,         ///< transfer failed
  corruption,       ///< checksum / erasure decode failure
  timeout,          ///< RPC deadline elapsed (peer may still be working)
  unreachable,      ///< no network route to the peer (link cut / partition)
  rejected,         ///< peer refused admission (breaker open, queue full)
  overloaded,       ///< peer shed the request under load (QoS policy); honor
                    ///< the retry-after hint before trying again
  fatal,            ///< unrecoverable internal error; never retry
};

/// Failure taxonomy for retry policies.  Connectivity faults are
/// transient conditions of the *path or peer* -- another replica, or the
/// same one later, may succeed.  Request faults mean the request itself
/// is wrong (or the data is gone) and retrying the identical request
/// cannot help.
constexpr bool errc_connectivity(Errc e) {
  return e == Errc::timeout || e == Errc::unreachable ||
         e == Errc::unavailable || e == Errc::io_error ||
         e == Errc::rejected || e == Errc::overloaded;
}

/// Whether a failed operation is worth retrying (possibly elsewhere).
/// out_of_memory is retryable: pressure is transient and placement may
/// pick a different node on the next attempt.
constexpr bool errc_retryable(Errc e) {
  return errc_connectivity(e) || e == Errc::out_of_memory;
}

/// Whether a failure should count against a server's health (circuit
/// breaker).  A clean application-level answer such as not_found or
/// permission proves the server is alive and responsive, so only
/// connectivity faults qualify -- except rejected, which the *client*
/// synthesizes without talking to the server, and overloaded, which is
/// a deliberate QoS shed: the server answered, on purpose, while
/// healthy.
constexpr bool errc_health_fault(Errc e) {
  return errc_connectivity(e) && e != Errc::rejected &&
         e != Errc::overloaded;
}

/// Human-readable name of an error code.
constexpr std::string_view errc_name(Errc e) {
  switch (e) {
    case Errc::ok: return "ok";
    case Errc::not_found: return "not_found";
    case Errc::already_exists: return "already_exists";
    case Errc::out_of_memory: return "out_of_memory";
    case Errc::permission: return "permission";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::not_a_directory: return "not_a_directory";
    case Errc::is_a_directory: return "is_a_directory";
    case Errc::not_empty: return "not_empty";
    case Errc::unavailable: return "unavailable";
    case Errc::io_error: return "io_error";
    case Errc::corruption: return "corruption";
    case Errc::timeout: return "timeout";
    case Errc::unreachable: return "unreachable";
    case Errc::rejected: return "rejected";
    case Errc::overloaded: return "overloaded";
    case Errc::fatal: return "fatal";
  }
  return "unknown";
}

struct Error {
  Errc code = Errc::ok;
  std::string message;

  std::string to_string() const {
    std::string s{errc_name(code)};
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }
};

/// Result<T>: holds either a T or an Error.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}              // NOLINT(google-explicit-constructor)
  Result(Error err) : v_(std::move(err)) {}              // NOLINT(google-explicit-constructor)
  Result(Errc code, std::string msg = {}) : v_(Error{code, std::move(msg)}) {}

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(v_));
  }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(v_);
  }
  Errc code() const { return ok() ? Errc::ok : error().code; }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(v_) : fallback;
  }

 private:
  std::variant<T, Error> v_;
};

/// Result<void> analogue.
class Status {
 public:
  Status() = default;
  Status(Error err) : err_(std::move(err)) {}  // NOLINT(google-explicit-constructor)
  Status(Errc code, std::string msg = {}) : err_(Error{code, std::move(msg)}) {}

  bool ok() const { return err_.code == Errc::ok; }
  explicit operator bool() const { return ok(); }
  Errc code() const { return err_.code; }
  const Error& error() const { return err_; }

 private:
  Error err_{};
};

}  // namespace memfss
