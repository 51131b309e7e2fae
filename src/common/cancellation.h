#ifndef KSP_COMMON_CANCELLATION_H_
#define KSP_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/status.h"

namespace ksp {

/// Cooperative cancellation + deadline handle shared between a request
/// owner (the serving tier, a test, an interactive caller) and the query
/// executor running on its behalf.
///
/// The executor never blocks on the token; it calls Check() at phase
/// boundaries (every 64 BFS pops, per candidate place, per shard visit)
/// and unwinds with a partial-stats error Status when the token fires.
/// The owner may cancel from any thread; all members are thread-safe.
///
/// Check() distinguishes the two trip reasons so the caller can map them
/// to distinct wire-level codes: an explicit Cancel() yields
/// StatusCode::kCancelled, an elapsed deadline yields
/// StatusCode::kDeadlineExceeded. Once tripped a token stays tripped
/// until Reset().
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Requests cancellation. Safe to call from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arms the deadline `ms` milliseconds from now (a negative `ms` means
  /// now). Pass through a fresh token per request; re-arming replaces the
  /// previous deadline. The sum saturates: a deadline past what the
  /// clock's int64 nanoseconds can hold (about 292 years of uptime) is
  /// no deadline.
  void set_deadline_after_ms(int64_t ms) {
    constexpr int64_t kNsPerMs = 1'000'000;
    const int64_t now =
        Clock::now().time_since_epoch() / std::chrono::nanoseconds(1);
    if (ms < 0) ms = 0;
    const int64_t deadline =
        ms < (kNoDeadline - now) / kNsPerMs ? now + ms * kNsPerMs
                                            : kNoDeadline;
    deadline_ns_.store(deadline, std::memory_order_release);
  }

  /// Clears any armed deadline without touching the cancel flag.
  void clear_deadline() {
    deadline_ns_.store(kNoDeadline, std::memory_order_release);
  }

  /// Test hook: makes the `n`-th subsequent Check() call (1-based) and
  /// every later one report kCancelled. Lets tests trip cancellation at
  /// a deterministic point mid-BFS instead of racing a timer.
  void CancelAfterChecks(uint64_t n) {
    cancel_at_check_.store(n, std::memory_order_release);
    checks_seen_.store(0, std::memory_order_release);
  }

  /// Number of Check() calls observed since construction / the last
  /// CancelAfterChecks(). Tests use this to assert the executors really
  /// polled the token.
  uint64_t checks_seen() const {
    return checks_seen_.load(std::memory_order_acquire);
  }

  /// Returns OK while the request may continue; kCancelled after
  /// Cancel(), kDeadlineExceeded once the armed deadline has elapsed.
  /// Cheap enough for per-iteration use: one relaxed counter bump plus
  /// two atomic loads, and a clock read only when a deadline is armed.
  Status Check() {
    uint64_t seen = checks_seen_.fetch_add(1, std::memory_order_acq_rel) + 1;
    uint64_t trip_at = cancel_at_check_.load(std::memory_order_acquire);
    if (trip_at != 0 && seen >= trip_at) {
      cancelled_.store(true, std::memory_order_release);
    }
    if (cancelled_.load(std::memory_order_acquire)) {
      return Status::Cancelled("request cancelled");
    }
    int64_t deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != kNoDeadline &&
        Clock::now().time_since_epoch() / std::chrono::nanoseconds(1) >=
            deadline) {
      return Status::DeadlineExceeded("request deadline elapsed");
    }
    return Status::OK();
  }

  /// True once Cancel() has been observed (does not consult the
  /// deadline; use Check() for the full verdict).
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Returns the token to its initial state so it can serve another
  /// request. Only call between requests, never while an executor may
  /// still poll it.
  void Reset() {
    cancelled_.store(false, std::memory_order_release);
    deadline_ns_.store(kNoDeadline, std::memory_order_release);
    cancel_at_check_.store(0, std::memory_order_release);
    checks_seen_.store(0, std::memory_order_release);
  }

 private:
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  std::atomic<uint64_t> cancel_at_check_{0};
  std::atomic<uint64_t> checks_seen_{0};
};

}  // namespace ksp

#endif  // KSP_COMMON_CANCELLATION_H_
