// MemoryTracker: hierarchical memory accounting with budgets.
//
// Trackers form a tree mirroring the resource hierarchy — engine → query →
// (implicitly, operator-held bytes tracked per operator in its metrics
// slot). A Charge() propagates up the chain; the first level whose budget
// would be exceeded rejects the charge with kResourceExhausted and the
// partial charge is rolled back, so a failed charge leaves every level's
// accounting unchanged. Exceeding a *query* budget therefore aborts only
// that query; concurrent queries under the same engine tracker keep their
// own headroom.
//
// Charging rules (see DESIGN.md §8): streamed batches are charged
// transiently per NextBatch() (peak detection at batch granularity);
// materializing operators (Sort_φ buffers, hash/product builds, the
// StackTree in-flight deques, dedup sets) charge what they hold and release
// it at Close(), so an aborted query always returns to zero.
//
// Thread safety: Charge/Release/used/peak are lock-free and callable from
// any thread (concurrent queries charge the shared engine tracker).
// set_limit/Reset are configuration-time only.
#ifndef ULOAD_EXEC_MEMORY_TRACKER_H_
#define ULOAD_EXEC_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace uload {

class MemoryTracker {
 public:
  // `limit_bytes` 0 = unlimited (accounting only). `parent` must outlive
  // this tracker.
  explicit MemoryTracker(std::string name = "query", int64_t limit_bytes = 0,
                         MemoryTracker* parent = nullptr)
      : name_(std::move(name)), limit_(limit_bytes), parent_(parent) {}

  // Accounts `bytes` here and in every ancestor. On budget exhaustion at
  // any level the whole charge is undone and kResourceExhausted returned.
  Status Charge(int64_t bytes) {
    if (bytes <= 0) return Status::Ok();
    int64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    if (limit_ > 0 && now > limit_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          name_ + " memory budget exceeded: " + std::to_string(now) + " of " +
          std::to_string(limit_) + " bytes");
    }
    if (parent_ != nullptr) {
      Status st = parent_->Charge(bytes);
      if (!st.ok()) {
        used_.fetch_sub(bytes, std::memory_order_relaxed);
        return st;
      }
    }
    return Status::Ok();
  }

  void Release(int64_t bytes) {
    if (bytes <= 0) return;
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->Release(bytes);
  }

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t limit() const { return limit_; }
  const std::string& name() const { return name_; }

  // Configuration-time only (no queries in flight).
  void set_limit(int64_t bytes) { limit_ = bytes; }
  void Reset() {
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  int64_t limit_;
  MemoryTracker* parent_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

}  // namespace uload

#endif  // ULOAD_EXEC_MEMORY_TRACKER_H_
