// ExecContext: shared runtime state of one physical-plan execution.
//
// The context owns (a) the batch-size configuration every operator picks up
// when the compiled tree is bound to it, (b) the per-query governor (control
// handle, memory tracker, fault spec), and (c) the per-operator runtime
// counters (batches/tuples produced, wall-clock spent in Open and
// NextBatch) that back the EXPLAIN-ANALYZE rendering (DescribeAnalyze).
// Counters live in a deque so registration never invalidates previously
// handed-out pointers; the context must outlive the operator tree bound to
// it.
//
// Threading contract: a plan executes on the one thread that drains it.
// The slot *table* (registration, snapshot, clear) is guarded by a Mutex
// with Clang Thread Safety annotations (DESIGN.md §12) — those paths run at
// compile/publish time, never per batch. The slot *contents* are outside
// the capability: each operator owns a distinct counter slot handed out as
// a stable pointer and written only by the executing thread, so no atomics
// or locks are needed on the hot path.
#ifndef ULOAD_EXEC_EXEC_CONTEXT_H_
#define ULOAD_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "algebra/tuple_batch.h"
#include "common/mutex.h"
#include "exec/memory_tracker.h"
#include "exec/query_control.h"

namespace uload {

// Whether the debug-mode batch validator (verify/batch_validator.h) is
// compiled in. The CMake option ULOAD_VALIDATE_BATCHES turns it on for every
// non-Release build, so all test configurations run with runtime schema and
// order cross-checking; Release serving builds leave it out.
#ifdef ULOAD_VALIDATE_BATCHES
inline constexpr bool kValidateBatches = true;
#else
inline constexpr bool kValidateBatches = false;
#endif

struct OperatorMetrics {
  std::string label;            // operator rendering at registration time
  int64_t batches_produced = 0;
  int64_t tuples_produced = 0;
  int64_t open_ns = 0;          // wall-clock inside Open(), inclusive
  int64_t next_ns = 0;          // wall-clock inside NextBatch(), inclusive
  int64_t peak_bytes = 0;       // peak bytes held by this operator

  // "batches=3 tuples=2310 open=0.12ms next=4.56ms" (+ " mem=<n>B" when the
  // operator held memory).
  std::string ToString() const;
};

// Deterministic fault-injection specification (testing only; see
// tests/exec_fault_test.cc). When enabled, the matching operator call —
// identified by the operator's registration ordinal and/or a label
// substring, the call site, and the per-operator call number — returns an
// injected kInternal error from the Open()/NextBatch() template method
// instead of running the operator implementation. The error must propagate
// out of Engine::Run as a clean Status with every memory charge returned
// and no state left behind; that contract is what the fault sweep
// enforces.
struct FaultSpec {
  enum class Site : uint8_t { kAny = 0, kOpen, kNextBatch };

  int op_index = -1;         // registration ordinal; -1 = any operator
  std::string op_substring;  // when non-empty the label must contain it
  Site site = Site::kAny;
  // Fire on the call_index-th matching call of each matching operator
  // (0-based, counted per operator instance); -1 disables deterministic
  // mode.
  int64_t call_index = -1;
  // Seeded random mode: every matching call fails independently with
  // probability random_prob, decided by a deterministic hash of
  // (seed, operator ordinal, site, call number) — reproducible across runs.
  uint64_t random_seed = 0;
  double random_prob = 0.0;

  bool enabled() const {
    return call_index >= 0 || (random_seed != 0 && random_prob > 0.0);
  }

  // Decision for one operator call; deterministic in its arguments.
  bool ShouldFail(int op, const std::string& label, Site s,
                  int64_t call) const;
};

class ExecContext {
 public:
  explicit ExecContext(size_t batch_size = TupleBatch::kDefaultCapacity)
      : batch_size_(batch_size) {}

  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n; }

  // Inert: every plan runs serially on the draining thread. Kept only
  // because the benchmark's replay of Engine::Run (perfbench/trace.cc)
  // still calls it.
  void set_thread_budget(size_t) {}

  // When set (the default), CompilePhysicalPlan statically verifies every
  // compiled tree — order-descriptor soundness, Sort_φ elision obligations,
  // operator placement (verify/plan_verifier.h) — and fails compilation with
  // a diagnostic Status instead of handing an inconsistent plan to the
  // executor.
  bool verify_plans() const { return verify_plans_; }
  void set_verify_plans(bool v) { verify_plans_ = v; }

  // Inert: the compiler always fuses (exec/fusion.h is the one
  // implementation of sources and unary operators). Kept only because the
  // benchmark's replay of Engine::Run (perfbench/trace.cc) still calls it.
  void set_fuse(bool) {}

  // --- Resource governor ----------------------------------------------------

  // The query's cancellation/deadline handle. Always non-null; operators
  // cache the raw pointer at Bind() and call Check() at batch boundaries.
  // The engine installs a fresh per-query control via set_control() so a
  // Cancel() handle can outlive the context's internal state.
  QueryControl* control() const { return control_.get(); }
  const std::shared_ptr<QueryControl>& shared_control() const {
    return control_;
  }
  void set_control(std::shared_ptr<QueryControl> c) {
    if (c != nullptr) control_ = std::move(c);
  }

  // Optional memory budget accounting; null = no accounting. Non-owning —
  // the tracker (typically the per-query level of the engine's hierarchy)
  // must outlive every operator tree bound to this context.
  MemoryTracker* memory_tracker() const { return memory_tracker_; }
  void set_memory_tracker(MemoryTracker* t) { memory_tracker_ = t; }

  // Fault injection (testing only; disabled by default). Operators consult
  // the spec in their Open()/NextBatch() template methods when enabled().
  const FaultSpec& fault() const { return fault_; }
  void set_fault(FaultSpec f) { fault_ = std::move(f); }

  // Registers one operator and returns its stable counter slot. When
  // `ordinal` is non-null it receives the slot's registration ordinal (the
  // fault-point address; stable across runs of the same plan).
  OperatorMetrics* Register(std::string label, int* ordinal = nullptr)
      EXCLUDES(metrics_mu_);

  // Drops every registered counter slot. Slots hand out stable pointers, so
  // this is only legal when no operator tree is still bound to the context;
  // a long-lived engine calls it before each fresh compile to keep the slot
  // table from growing without bound across queries.
  void ClearMetrics() EXCLUDES(metrics_mu_) {
    MutexLock lock(&metrics_mu_);
    metrics_.clear();
  }

  // A value snapshot of the counter table, registration order. This is the
  // read surface: callers never see a reference into the guarded table, so
  // a publishing engine and a polling reader cannot share slots.
  std::deque<OperatorMetrics> MetricsSnapshot() const EXCLUDES(metrics_mu_);

  // Registered slot count (== the ordinal space of the fault sweep).
  size_t metric_count() const EXCLUDES(metrics_mu_);

  int64_t total_tuples() const EXCLUDES(metrics_mu_);
  int64_t total_batches() const EXCLUDES(metrics_mu_);

  // Flat per-operator counter table, registration order.
  std::string Summary() const EXCLUDES(metrics_mu_);

 private:
  size_t batch_size_;
  bool verify_plans_ = true;
  std::shared_ptr<QueryControl> control_ = std::make_shared<QueryControl>();
  MemoryTracker* memory_tracker_ = nullptr;
  FaultSpec fault_;
  // Guards the table structure (registration / snapshot / clear). Slot
  // contents are written through the stable pointers by the executing
  // thread, outside this capability.
  mutable Mutex metrics_mu_;
  std::deque<OperatorMetrics> metrics_ GUARDED_BY(metrics_mu_);
};

}  // namespace uload

#endif  // ULOAD_EXEC_EXEC_CONTEXT_H_
