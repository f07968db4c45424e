// Admission control for the query service (DESIGN.md §10, §13).
//
// Every query crossing the wire passes through AdmissionController::Admit()
// before it reaches Engine::Run. Under pressure the controller walks a
// DEGRADATION LADDER instead of shedding outright — each rung trades a
// little per-query quality for staying admitted, and only the last rung
// sheds:
//
//   1. clamp   — when the system is saturated (the request had to queue,
//                the last executing slot is being taken, or engine memory
//                is above `degrade_headroom` of its cap), the granted
//                ticket is DEGRADED: its `degraded_batch_size` clamp
//                caps the query's batch fill. Counted in Stats::degraded.
//   2. queue   — at most `max_concurrent` queries execute at once; up to
//                `max_queued` more wait (FIFO by wakeup) for
//                `queue_timeout_ms`. With the ladder armed
//                (`max_queued_degraded` > 0), requests that would have
//                been shed — queue overflow up to the degraded bonus, or
//                arrival under the memory high water — wait instead on a
//                SHORTENED deadline (queue_timeout_ms / 4, at least 1ms).
//                Counted in Stats::queued_short_deadline.
//   3. shed    — queue full beyond the degraded bonus, shortened deadline
//                elapsed, memory still critical, or draining: the request
//                is rejected with kResourceExhausted. Every shed path fills
//                the caller's ErrorDetail with a machine-readable
//                `retry_after_ms` hint that travels in the append-only wire
//                error-detail field.
//
// Deadline propagation: AdmitRequest::client_budget_ms is the client's
// remaining wall-clock budget (0 = none). It bounds the queue wait, and the
// granted ticket's deadline is min(admit-time `query_timeout_ms` budget,
// remaining client budget) — the server never spends longer on a query than
// the client will wait for it.
//
// The governor wiring happens at admit time: a granted Ticket carries a
// fresh QueryControl whose deadline starts at the *admit* instant (queue
// wait already consumed part of the client's patience, not part of the
// query's budget) plus the per-query memory budget to install on the run.
// The Ticket is RAII — destruction releases the slot and wakes one waiter —
// and its release is what BeginDrain()/WaitIdle() observe, so a server
// holds tickets until the response bytes are written and drain covers
// response delivery, not just execution.
//
// Thread safety: every public member is safe from any thread.
#ifndef ULOAD_SERVER_ADMISSION_H_
#define ULOAD_SERVER_ADMISSION_H_

#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "common/status.h"
#include "exec/memory_tracker.h"
#include "exec/query_control.h"
#include "server/wire.h"

namespace uload {

struct AdmissionConfig {
  // Executing-query slots; at least 1.
  int max_concurrent = 4;
  // Queries allowed to wait for a slot; 0 = shed the moment slots are full.
  int max_queued = 16;
  // Longest a query may wait in the queue before it is shed; 0 = no wait
  // (equivalent to max_queued = 0 for slow servers).
  int64_t queue_timeout_ms = 5000;
  // Per-query wall-clock budget assigned at admit; 0 = unlimited.
  int64_t query_timeout_ms = 0;
  // Per-query memory budget installed on the run; 0 = unlimited.
  int64_t query_memory_limit_bytes = 0;
  // Shed new queries once engine_memory->used() reaches this fraction of
  // its limit (only when the engine tracker has a limit). 1.0 disables
  // early shedding — queries then fail individually on Charge().
  double memory_headroom = 0.9;

  // --- degradation ladder (DESIGN.md §13) ---
  // Rung 1: grant degraded (clamped) tickets under pressure. On by default;
  // the clamps only bind when pressure actually exists.
  bool degradation = true;
  // Engine-memory fraction above which every granted ticket degrades.
  double degrade_headroom = 0.7;
  // Batch-size clamp carried by a degraded ticket (0 = no clamp).
  size_t degraded_batch_size = 256;
  // Rung 2: extra queue positions usable only with the shortened deadline,
  // and permission to wait out a memory high water instead of shedding on
  // arrival. 0 (the default) disarms the rung — shed behavior is then
  // exactly the pre-ladder contract.
  int max_queued_degraded = 0;
};

class AdmissionController {
 public:
  // A granted admission. Move-only; releases its slot on destruction.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      controller_ = other.controller_;
      control_ = std::move(other.control_);
      memory_limit_bytes_ = other.memory_limit_bytes_;
      degraded_ = other.degraded_;
      batch_size_clamp_ = other.batch_size_clamp_;
      other.controller_ = nullptr;
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    // The query's governor handle: deadline preset to the admit-time
    // budget (tightened by the client's propagated budget), Cancel()able
    // by a drain.
    const std::shared_ptr<QueryControl>& control() const { return control_; }
    int64_t memory_limit_bytes() const { return memory_limit_bytes_; }

    // Degraded tickets carry a batch-size clamp the server applies on top
    // of the session's own option (0 = no clamp).
    bool degraded() const { return degraded_; }
    size_t batch_size_clamp() const { return batch_size_clamp_; }

    void Release();

   private:
    friend class AdmissionController;
    AdmissionController* controller_ = nullptr;
    std::shared_ptr<QueryControl> control_;
    int64_t memory_limit_bytes_ = 0;
    bool degraded_ = false;
    size_t batch_size_clamp_ = 0;
  };

  struct Stats {
    int64_t admitted = 0;
    int64_t degraded = 0;              // admitted with clamps (ladder rung 1)
    int64_t queued_short_deadline = 0; // waited on the shortened deadline
    int64_t shed_queue_full = 0;
    int64_t shed_queue_timeout = 0;
    int64_t shed_memory = 0;
    int64_t shed_draining = 0;
    int executing = 0;
    int queued = 0;
  };

  // Per-request admission inputs (deadline propagation).
  struct AdmitRequest {
    // The client's remaining wall-clock budget in ms; 0 = none declared.
    int64_t client_budget_ms = 0;
  };

  // `engine_memory` may be null (no memory-based shedding); it must outlive
  // the controller.
  AdmissionController(AdmissionConfig config,
                      const MemoryTracker* engine_memory);

  // Blocks until a slot is granted or the query is shed. Every shed path
  // returns kResourceExhausted with a distinguishing message; when `detail`
  // is non-null it receives the machine-readable retry_after_ms hint.
  [[nodiscard]] Result<Ticket> Admit(const AdmitRequest& req,
                                     ErrorDetail* detail = nullptr)
      EXCLUDES(mu_);
  [[nodiscard]] Result<Ticket> Admit() EXCLUDES(mu_) {
    return Admit(AdmitRequest());
  }

  // Sheds every queued waiter and every future Admit() with
  // "server draining". Irreversible.
  void BeginDrain() EXCLUDES(mu_);

  // Blocks until no query is executing or queued, up to `timeout_ms`
  // (0 = indefinitely). Returns true when idle.
  bool WaitIdle(int64_t timeout_ms) EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  void ReleaseSlot() EXCLUDES(mu_);
  // True when the engine tracker is within `memory_headroom` of its cap;
  // fills `used` for the shed message.
  bool MemoryHighWaterLocked(int64_t* used) const REQUIRES(mu_);
  // True when the engine tracker is above `degrade_headroom` of its cap.
  bool MemoryDegradePressureLocked() const REQUIRES(mu_);
  // Queue wait: blocks until a slot frees, drain begins, or `wait_ms`
  // elapses. True when a slot is available (or drain decides the outcome);
  // false on a pure timeout.
  bool WaitForSlotLocked(int64_t wait_ms) REQUIRES(mu_);
  // Short-deadline wait for the memory high water to clear (ladder rung 2).
  // True when the water dropped; false on timeout or drain.
  bool WaitForMemoryLocked(int64_t wait_ms) REQUIRES(mu_);
  // Takes a slot and builds the granted ticket (control with admit-time
  // deadline min client budget + memory budget + degradation clamps).
  // `saturated` marks requests that experienced queueing.
  Ticket GrantLocked(const AdmitRequest& req, bool saturated) REQUIRES(mu_);
  // The rung-2 shortened deadline.
  int64_t ShortTimeoutMsLocked() const REQUIRES(mu_);
  bool IdleLocked() const REQUIRES(mu_) {
    return stats_.executing == 0 && stats_.queued == 0;
  }

  AdmissionConfig config_;  // immutable after construction
  const MemoryTracker* engine_memory_;
  // Guards every mutable member; cv_ waiters are woken by slot release,
  // drain, and queue-count changes. Lock ordering: mu_ is a leaf.
  mutable Mutex mu_;
  CondVar cv_;
  bool draining_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace uload

#endif  // ULOAD_SERVER_ADMISSION_H_
