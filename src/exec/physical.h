// Physical operators (thesis §1.2.3): the batch-at-a-time execution engine.
//
// All physical operators consume and produce streams of (possibly nested)
// tuples through an Open/NextBatch/Close interface. Every source and the
// unary operators (Select, Project, Project0, Navigate, Rename, Retype) run
// inside FusedPipeline_φ (exec/fusion.h); the operators defined here are
// the pipeline breakers — Sort_φ, the StackTree structural joins, the value
// joins, Product and Union. A query runs on the thread that drains it.
//
// A NextBatch() call returns up to one TupleBatch (default 1024 tuples), so
// per-call costs — virtual dispatch, runtime accounting, clock reads —
// amortize over the whole batch instead of being paid per tuple. A thin
// NextTuple() adapter on the base class serves operators with inherently
// tuple-wise consumption (the StackTree joins walk both inputs
// cursor-style; the value joins and Product pull their probe side).
//
// Structural joins are implemented by the streaming StackTree algorithms,
// which require both inputs in document order — the compiler tracks order
// descriptors and inserts Sort_φ enforcers exactly where the requirement is
// not already met, the way the thesis's optimizer pipes structural joins
// into each other. StackTreeDesc_φ (inner joins) and StackTreeAnc_φ (the
// other variants) share one ancestor cursor and differ only in their output
// rule.
//
// Orders flow forward (exec/order_descriptor.h): a leaf advertises the order
// its binder declares, every other operator derives its order from its
// inputs', and one rule elides a Sort_φ — OrderCovers(input order,
// required). No code path reads data to discover an order; in debug builds
// the batch validator checks each operator's stream against its order().
//
// Each rule is written once. Every join variant (inner, semi, outer,
// nest-join, nest-outer) is emitted by EmitJoinVariant (exec/plan_schemas.h)
// — from StackTreeAnc_φ, HashJoin_φ/NestedLoopJoin_φ and the fused
// Navigate_φ — beside JoinOutputSchema, which gives its schema. Sort_φ, the
// value joins and Product_φ materialize their build side through one drain
// that checks the governor and charges memory per batch. HashJoin_φ keys
// its build side like a value index (AppendEqualityKey, algebra/value.h):
// the key only narrows the candidates and operator== decides each.
//
// Runtime observability: binding the compiled tree to an ExecContext gives
// every operator a counter slot (batches/tuples produced, Open/NextBatch
// wall-clock). DescribeAnalyze() renders the plan with those counters, the
// EXPLAIN-ANALYZE view of an executed plan.
#ifndef ULOAD_EXEC_PHYSICAL_H_
#define ULOAD_EXEC_PHYSICAL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "algebra/tuple_batch.h"
#include "exec/eval_context.h"
#include "exec/exec_context.h"
#include "exec/order_descriptor.h"

namespace uload {

// Coarse physical-operator class, exposed for the static plan verifier
// (verify/plan_verifier.h): placement rules key on it, and diagnostics name
// it. Operators that no rule cares about report kOther.
enum class PhysOpKind : uint8_t {
  kOther = 0,
  kSort,
  kStructuralJoin,  // StackTreeDesc and the StackTreeAnc variants
  kValueJoin,
  kProduct,
  kUnion,
  kFusedPipeline,  // every source and unary operator
};

// Pull-based batch-at-a-time physical operator.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  // Template methods: wrap the per-operator implementation with runtime
  // accounting. Open() also resets the NextTuple() adapter cursor, so
  // re-opening an operator tree replays the stream from the start.
  Status Open();
  // Produces the next batch of tuples, or nullopt at end of stream.
  // Returned batches are non-empty and hold at most the configured batch
  // size (the fill target; see TupleBatch).
  Result<std::optional<TupleBatch>> NextBatch();
  void Close();

  // Tuple-at-a-time adapter over NextBatch(): hands out the buffered batch
  // one tuple at a time, pulling a fresh batch when it runs dry.
  Result<std::optional<Tuple>> NextTuple();

  // Output schema, valid after construction.
  virtual const SchemaPtr& schema() const = 0;
  // Order of the produced stream (may be empty = unordered).
  virtual const OrderDescriptor& order() const = 0;

  // One-line operator rendering without indentation or children, e.g.
  // "Select_phi[n_Val contains-word 'Smith']".
  virtual std::string label() const = 0;
  // Input operators in display order.
  virtual std::vector<PhysicalOperator*> children() const { return {}; }

  // Operator-tree rendering with physical operator names; two spaces of
  // indentation per tree level. Virtual so FusedPipeline_φ can render its
  // chain members as sub-lines.
  virtual std::string Describe(int indent = 0) const;
  // Describe() plus the per-operator runtime counters of the last
  // execution — EXPLAIN ANALYZE for an executed plan.
  virtual std::string DescribeAnalyze(int indent = 0) const;

  // Binds this subtree to `ctx`: operators adopt the configured batch size
  // and register their runtime counters with the context. `ctx` must
  // outlive the operator tree. Without a bind, operators run with the
  // default batch size and keep counters in a private slot.
  void Bind(ExecContext* ctx);

  const OperatorMetrics& metrics() const { return *metrics_; }

  // --- Static-verification surface (verify/plan_verifier.h) ---------------

  // Coarse operator class for placement rules and diagnostics.
  virtual PhysOpKind kind() const { return PhysOpKind::kOther; }

  // Order the `child`-th input stream (in children() order) must satisfy for
  // this operator's algorithm to be correct; empty = no requirement. The
  // StackTree joins require document order on their join attributes.
  virtual OrderDescriptor RequiredChildOrder(size_t child) const {
    (void)child;
    return OrderDescriptor();
  }

  // The order this operator may soundly advertise, recomputed from its
  // children's *current* advertised orders by the operator's own propagation
  // rule. The verifier checks that the advertised order() is covered by this
  // recomputation — an operator may not claim an order it cannot derive.
  // A leaf's order is what its binder declares, so the default returns
  // order() unchanged; the batch validator is its witness.
  virtual OrderDescriptor ProvableOrder() const { return order(); }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<std::optional<TupleBatch>> NextBatchImpl() = 0;
  virtual void CloseImpl() = 0;

  // --- Resource governor hooks (exec/query_control.h, memory_tracker.h) ---
  // Open()/NextBatch() check cancellation/deadline at every call; an
  // operator whose *implementation* loops long without returning (Sort_φ
  // materialization, hash/product builds, the StackTree deques) additionally
  // calls CheckControl() per consumed batch.
  Status CheckControl();

  // Budgeted accounting of operator-held memory (sort buffers, hash tables,
  // nest accumulators, dedup sets). Charges go to the context's tracker
  // hierarchy and count toward this operator's peak_bytes metric; Close()
  // releases whatever is still held, so an aborted query always returns the
  // tracker to zero. ChargeMemory fails with kResourceExhausted when a
  // budget level would be exceeded, leaving the accounting unchanged.
  Status ChargeMemory(int64_t bytes);
  void ReleaseMemory(int64_t bytes);
  int64_t held_bytes() const { return held_bytes_; }

  // Quantum-buffered variants for streaming state that grows and shrinks
  // tuple-wise (the StackTree in-flight/pending deques): deltas accumulate
  // locally and hit the shared tracker only once per ±64 KiB, so per-tuple
  // accounting costs no per-tuple atomics. Close() reconciles the remainder.
  Status TrackGrow(int64_t bytes);
  void TrackShrink(int64_t bytes);

  // Bind() hook for the subtree below this operator; the default binds
  // children() to the same context. FusedPipeline_φ overrides it to also
  // register its chain members.
  virtual void BindChildren(ExecContext* ctx);

  // Configured fill target for produced batches.
  size_t batch_size() const { return batch_size_; }
  // Fresh output batch tagged with this operator's schema.
  TupleBatch NewBatch() const { return TupleBatch(schema(), batch_size_); }

  // Fault spec adopted at Bind(); null unless injection is enabled.
  // FusedPipeline_φ consults it for its member sites, so the fault sweep
  // addresses every chain member.
  const FaultSpec* fault_spec() const { return fault_; }

 private:
  void ReleaseAllMemory();

  size_t batch_size_ = TupleBatch::kDefaultCapacity;
  // Debug-build batch validation (verify/batch_validator.h): the key values
  // of the last tuple produced since Open(), which the next batch must not
  // sort before.
  std::vector<AtomicValue> order_tail_;
  // Governor state adopted at Bind(): the query's cancellation handle, the
  // optional budget tracker, and the fault spec (non-null only when
  // injection is enabled). Unbound operators run ungoverned.
  QueryControl* control_ = nullptr;
  MemoryTracker* memory_ = nullptr;
  const FaultSpec* fault_ = nullptr;
  int op_ordinal_ = -1;     // registration ordinal (fault-point address)
  int64_t open_calls_ = 0;  // per-instance call counters for fault matching
  int64_t next_calls_ = 0;
  int64_t held_bytes_ = 0;      // memory currently charged by this operator
  int64_t deferred_bytes_ = 0;  // TrackGrow/TrackShrink local accumulator
  OperatorMetrics local_metrics_;
  OperatorMetrics* metrics_ = &local_metrics_;
  // NextTuple() adapter state.
  std::optional<TupleBatch> adapter_batch_;
  size_t adapter_pos_ = 0;
  bool adapter_done_ = false;
};

using PhysicalPtr = std::unique_ptr<PhysicalOperator>;

// Compiles a logical plan into a physical operator tree. Inputs of
// structural joins that are not already sorted on the join attribute get a
// Sort_φ enforcer. Navigation steps and index sources capture the context;
// navigation and parent-derivation steps refer to their plan nodes, so
// `plan` must outlive the returned tree. Every operator has a streaming
// implementation; a structural join on a nested attribute has none and
// fails with NotImplemented. When `exec` is non-null the compiled tree is
// bound to it (batch size + runtime counters); `exec` must then outlive the
// returned tree.
Result<PhysicalPtr> CompilePhysicalPlan(const PlanPtr& plan,
                                        const EvalContext& ctx,
                                        ExecContext* exec = nullptr);

// The drain loop every caller shares: opens `root`, hands each produced
// batch to `sink` until the stream ends or the tree or the sink fails, and
// then closes the tree unconditionally. Closing on the error path is what
// returns every budget charge before an aborted query (cancel, deadline,
// budget, injected fault) surfaces its Status.
Status DrainPhysical(PhysicalOperator* root,
                     const std::function<Status(TupleBatch&)>& sink);

// Drains a physical operator tree into a materialized relation.
Result<NestedRelation> ExecutePhysical(PhysicalOperator* root);

// Convenience: compile + execute.
Result<NestedRelation> ExecutePhysicalPlan(const PlanPtr& plan,
                                           const EvalContext& ctx,
                                           ExecContext* exec = nullptr);

}  // namespace uload

#endif  // ULOAD_EXEC_PHYSICAL_H_
