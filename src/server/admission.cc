#include "server/admission.h"

#include <algorithm>
#include <chrono>

namespace uload {
namespace {

void SetRetryAfter(ErrorDetail* detail, int64_t ms) {
  if (detail != nullptr) detail->retry_after_ms = std::max<int64_t>(0, ms);
}

}  // namespace

void AdmissionController::Ticket::Release() {
  if (controller_ == nullptr) return;
  controller_->ReleaseSlot();
  controller_ = nullptr;
  control_.reset();
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         const MemoryTracker* engine_memory)
    : config_(config), engine_memory_(engine_memory) {
  config_.max_concurrent = std::max(1, config_.max_concurrent);
  config_.max_queued = std::max(0, config_.max_queued);
  config_.max_queued_degraded = std::max(0, config_.max_queued_degraded);
}

bool AdmissionController::MemoryHighWaterLocked(int64_t* used) const {
  // Memory high water: shedding up front beats admitting a query that the
  // engine tracker will abort mid-flight anyway.
  if (engine_memory_ == nullptr || engine_memory_->limit() <= 0 ||
      config_.memory_headroom >= 1.0) {
    return false;
  }
  int64_t water = static_cast<int64_t>(
      config_.memory_headroom * static_cast<double>(engine_memory_->limit()));
  *used = engine_memory_->used();
  return *used >= water;
}

bool AdmissionController::MemoryDegradePressureLocked() const {
  if (engine_memory_ == nullptr || engine_memory_->limit() <= 0 ||
      config_.degrade_headroom >= 1.0) {
    return false;
  }
  int64_t water = static_cast<int64_t>(
      config_.degrade_headroom *
      static_cast<double>(engine_memory_->limit()));
  return engine_memory_->used() >= water;
}

int64_t AdmissionController::ShortTimeoutMsLocked() const {
  return std::max<int64_t>(1, config_.queue_timeout_ms / 4);
}

bool AdmissionController::WaitForSlotLocked(int64_t wait_ms) {
  // Explicit predicate loop (not a wait_for lambda) so the guarded reads in
  // the condition stay visible to the thread-safety analysis. Semantics
  // match std::condition_variable::wait_for with a predicate: on timeout
  // the condition gets one final look under the lock.
  auto deadline = CondVar::DeadlineAfterMs(wait_ms);
  while (!draining_ && stats_.executing >= config_.max_concurrent) {
    if (!cv_.WaitUntil(&mu_, deadline)) {
      return draining_ || stats_.executing < config_.max_concurrent;
    }
  }
  return true;
}

bool AdmissionController::WaitForMemoryLocked(int64_t wait_ms) {
  // Slot releases double as the "memory may have dropped" signal: queries
  // free their trackers when they end, which is when ReleaseSlot notifies.
  // The timed wait bounds the stall either way.
  auto deadline = CondVar::DeadlineAfterMs(wait_ms);
  int64_t used = 0;
  while (!draining_ && MemoryHighWaterLocked(&used)) {
    if (!cv_.WaitUntil(&mu_, deadline)) {
      return !MemoryHighWaterLocked(&used);
    }
  }
  return !draining_;
}

AdmissionController::Ticket AdmissionController::GrantLocked(
    const AdmitRequest& req, bool saturated) {
  ++stats_.executing;
  ++stats_.admitted;
  Ticket t;
  t.controller_ = this;
  t.control_ = std::make_shared<QueryControl>();
  // Deadline from the admit instant: queue wait spent the client's
  // patience, not the query's budget. The effective budget is
  // min(admit-time budget, the client's remaining propagated budget).
  int64_t budget_ms = config_.query_timeout_ms;
  if (req.client_budget_ms > 0) {
    budget_ms = budget_ms > 0 ? std::min(budget_ms, req.client_budget_ms)
                              : req.client_budget_ms;
  }
  if (budget_ms > 0) {
    t.control_->set_deadline_ns(QueryControl::DeadlineAfterMs(budget_ms));
  }
  t.memory_limit_bytes_ = config_.query_memory_limit_bytes;

  // Ladder rung 1: clamp. Saturation = this request had to queue, it is
  // taking the last free slot of a multi-slot server, or engine memory is
  // above the degrade headroom. (A 1-slot server always grants its "last"
  // slot; that alone is not pressure.)
  if (config_.degradation) {
    bool last_slot = config_.max_concurrent > 1 &&
                     stats_.executing >= config_.max_concurrent;
    bool pressure = saturated || stats_.queued > 0 || last_slot ||
                    MemoryDegradePressureLocked();
    if (pressure) {
      t.degraded_ = true;
      t.batch_size_clamp_ = config_.degraded_batch_size;
      ++stats_.degraded;
    }
  }
  return t;
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    const AdmitRequest& req, ErrorDetail* detail) {
  MutexLock lock(&mu_);
  if (draining_) {
    ++stats_.shed_draining;
    return Status::ResourceExhausted("server draining");
  }
  int64_t used = 0;
  if (MemoryHighWaterLocked(&used)) {
    // Ladder rung 2 (armed only with max_queued_degraded > 0): wait out
    // the high water on the shortened deadline before giving up.
    bool cleared = false;
    if (config_.max_queued_degraded > 0) {
      int64_t wait_ms = ShortTimeoutMsLocked();
      if (req.client_budget_ms > 0) {
        wait_ms = std::min(wait_ms, req.client_budget_ms);
      }
      ++stats_.queued;
      ++stats_.queued_short_deadline;
      cleared = WaitForMemoryLocked(wait_ms);
      --stats_.queued;
      cv_.NotifyAll();
      if (draining_) {
        ++stats_.shed_draining;
        return Status::ResourceExhausted("server draining");
      }
    }
    if (!cleared && MemoryHighWaterLocked(&used)) {
      ++stats_.shed_memory;
      SetRetryAfter(detail, ShortTimeoutMsLocked());
      return Status::ResourceExhausted(
          "engine memory high water: " + std::to_string(used) + " of " +
          std::to_string(engine_memory_->limit()) + " bytes in use");
    }
  }
  bool saturated = false;
  if (stats_.executing >= config_.max_concurrent) {
    bool normal_room =
        stats_.queued < config_.max_queued && config_.queue_timeout_ms > 0;
    bool degraded_room =
        config_.max_queued_degraded > 0 &&
        stats_.queued < config_.max_queued + config_.max_queued_degraded;
    if (!normal_room && !degraded_room) {
      ++stats_.shed_queue_full;
      SetRetryAfter(detail, config_.queue_timeout_ms > 0
                                ? config_.queue_timeout_ms / 2
                                : 100);
      return Status::ResourceExhausted(
          "admission queue full: " + std::to_string(stats_.executing) +
          " executing, " + std::to_string(stats_.queued) + " queued");
    }
    // Ladder rung 2: overflow positions wait on the shortened deadline.
    int64_t wait_ms =
        normal_room ? config_.queue_timeout_ms : ShortTimeoutMsLocked();
    if (req.client_budget_ms > 0) {
      wait_ms = std::min(wait_ms, req.client_budget_ms);
    }
    ++stats_.queued;
    if (!normal_room) ++stats_.queued_short_deadline;
    bool got_slot = WaitForSlotLocked(wait_ms);
    --stats_.queued;
    saturated = true;
    // A WaitIdle() caller may be watching the queued count too.
    cv_.NotifyAll();
    if (draining_) {
      ++stats_.shed_draining;
      return Status::ResourceExhausted("server draining");
    }
    if (!got_slot) {
      ++stats_.shed_queue_timeout;
      SetRetryAfter(detail, std::max<int64_t>(1, wait_ms / 2));
      return Status::ResourceExhausted("admission queue timeout after " +
                                       std::to_string(wait_ms) + " ms");
    }
  }
  return GrantLocked(req, saturated);
}

void AdmissionController::ReleaseSlot() {
  {
    MutexLock lock(&mu_);
    --stats_.executing;
  }
  cv_.NotifyAll();
}

void AdmissionController::BeginDrain() {
  {
    MutexLock lock(&mu_);
    draining_ = true;
  }
  cv_.NotifyAll();
}

bool AdmissionController::WaitIdle(int64_t timeout_ms) {
  MutexLock lock(&mu_);
  if (timeout_ms <= 0) {
    while (!IdleLocked()) cv_.Wait(&mu_);
    return true;
  }
  auto deadline = CondVar::DeadlineAfterMs(timeout_ms);
  while (!IdleLocked()) {
    if (!cv_.WaitUntil(&mu_, deadline)) return IdleLocked();
  }
  return true;
}

AdmissionController::Stats AdmissionController::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace uload
