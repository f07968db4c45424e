// QueryControl: the cooperative cancellation + deadline handle of one query.
//
// One QueryControl is shared (via ExecContext) by every operator of a
// compiled plan, including the operator pipelines inside Exchange workers.
// Cancellation is cooperative: Cancel() and deadline expiry only flip state
// here; the operators observe it at batch boundaries — the template methods
// PhysicalOperator::Open()/NextBatch() call Check() before running the
// operator implementation, and long-running materialization loops (Sort_φ
// buffering, hash builds, the StackTree deques, the exchange k-way merge)
// call CheckControl() per consumed batch. A positive Check() result
// propagates out of Engine::Run as kCancelled / kDeadlineExceeded.
//
// Thread safety: every member is lock-free and safe to call from any thread
// — Cancel() is explicitly a cross-thread API (an Engine::Cancel() handle, a
// signal handler trampoline, a watchdog).
#ifndef ULOAD_EXEC_QUERY_CONTROL_H_
#define ULOAD_EXEC_QUERY_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace uload {

class QueryControl {
 public:
  // Monotonic clock in nanoseconds; deadlines and Check() share this epoch.
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Requests cooperative cancellation. Safe from any thread; idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Absolute deadline on the NowNs() clock; 0 disables the deadline.
  void set_deadline_ns(int64_t ns) {
    deadline_ns_.store(ns, std::memory_order_relaxed);
  }
  int64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

  // Testing hook: behave as if Cancel() had been called once `n` further
  // Check() calls have happened (n >= 1). Deterministic for serial plans;
  // for parallel plans it trips mid-query on whichever thread reaches the
  // count. 0 disables.
  void CancelAfterChecks(int64_t n) {
    cancel_after_checks_.store(n, std::memory_order_relaxed);
  }

  // Number of Check() calls so far — lets tests handshake with an in-flight
  // query ("cancel only once it is demonstrably running").
  int64_t checks() const { return checks_.load(std::memory_order_relaxed); }

  // The cooperative check. Returns kCancelled once cancelled,
  // kDeadlineExceeded once `now_ns` passes the deadline, Ok otherwise.
  // Callers pass the clock reading they already hold.
  Status Check(int64_t now_ns) {
    int64_t n = checks_.fetch_add(1, std::memory_order_relaxed) + 1;
    int64_t trip = cancel_after_checks_.load(std::memory_order_relaxed);
    if (trip > 0 && n >= trip) {
      cancelled_.store(true, std::memory_order_relaxed);
    }
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline > 0 && now_ns >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::Ok();
  }

  // Clears all state (a pooled control reused across queries).
  void Reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
    cancel_after_checks_.store(0, std::memory_order_relaxed);
    checks_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{0};
  std::atomic<int64_t> cancel_after_checks_{0};
  std::atomic<int64_t> checks_{0};
};

}  // namespace uload

#endif  // ULOAD_EXEC_QUERY_CONTROL_H_
