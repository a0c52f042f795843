// Cooperative cancellation for long-running library calls.
//
// A CancelToken is owned by whoever wants to stop the work (the batch
// service's per-job state, a test, an embedding application) and is passed
// by pointer into the work (FillEngineOptions::cancel). The work polls
// expired() at natural checkpoints — stage boundaries and once per window —
// and unwinds by throwing CancelledError. Polling never changes results:
// a run that is not cancelled is byte-identical to one without a token.
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace ofl {

/// Thrown by cancellable work when its token expires mid-run.
struct CancelledError : std::runtime_error {
  CancelledError() : std::runtime_error("cancelled") {}
};

struct CancelToken {
  /// Explicit cancellation (FillService::cancel, user code).
  std::atomic<bool> cancelled{false};
  /// Optional deadline; ignored until armDeadline() sets it.
  std::chrono::steady_clock::time_point deadline{};
  bool hasDeadline = false;

  void cancel() { cancelled.store(true, std::memory_order_relaxed); }

  /// Sets the deadline `seconds` from now (<= 0 means no deadline).
  void armDeadline(double seconds) {
    if (seconds <= 0) return;
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds));
    hasDeadline = true;
  }

  /// True once cancelled or past the deadline. The flag is checked first so
  /// the common not-cancelled case is one relaxed atomic load when no
  /// deadline is armed.
  bool expired() const {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    return hasDeadline && std::chrono::steady_clock::now() >= deadline;
  }

  /// Throws CancelledError if expired; the checkpoint cancellable work
  /// sprinkles through its stages.
  void throwIfExpired() const {
    if (expired()) throw CancelledError();
  }
};

/// Checkpoint of work that takes an optional token: no-op without one. A
/// pool worker that throws aborts its parallelFor (the remaining indices
/// are abandoned) and the pool rethrows on the caller.
inline void checkCancel(const CancelToken* token) {
  if (token != nullptr) token->throwIfExpired();
}

}  // namespace ofl
