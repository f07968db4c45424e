// Pipeline fusion: the engine's one implementation of serial sources and
// unary operators (the produce/consume design of HyPer-style engines,
// realized as template composition instead of source emission).
//
// The compiler (exec/physical.cc) splits a plan at pipeline *breakers* —
// Sort_φ, StackTree buffering, hash-join builds and Product/Union fan-in —
// and compiles each maximal chain of unary operators (Select, Project and
// first-wins dedup Project0, Navigate, DeriveParent, Rename, Retype) into a
// single FusedPipeline_φ. The chain may be empty: a bare source is a
// zero-step pipeline. The fused operator pulls source tuples from an inline
// cursor (materialized rows, index row-id lists, columnar row sets, the
// unit relation) or from a breaker below it, and pushes each tuple through
// the chain's steps in one loop: no intermediate TupleBatch is
// materialized, no virtual NextBatch() boundary is crossed, and the
// governor's cancel/deadline/memory checks run once per pipeline iteration
// instead of once per chain member.
//
// A source copies only the columns its pipeline's consumers read: the
// compiler passes each inline source its kept columns (positions in the
// stored schema, ascending; the liveness rules of DESIGN §11), and the
// source's schema is the stored schema restricted to them. A dead column —
// a whole subtree's Val or Cont, say — is never copied or decoded.
//
// Contract with the rest of the engine:
//  - Schemas/orders: the fused operator advertises the chain's *composed*
//    output schema and order descriptor, and records every member boundary
//    (schema + order at that point) as a checkable obligation. Orders flow
//    forward only: an inline source advertises its binder's declared order
//    (restricted to the kept columns) and each step propagates it. The
//    static plan verifier (verify/plan_verifier.cc) re-derives each step's
//    output schema from its input schema and re-propagates the order
//    descriptors.
//  - Metrics: each chain member keeps its own counter slot in the
//    ExecContext (registered at Bind with the member's label), and the fused
//    loop attributes tuples flowing *out of* each step to that slot —
//    DescribeAnalyze still explains the logical chain. Wall-clock is
//    attributed at pipeline granularity.
//  - Faults: the fault-injection spec is consulted per member site (ordinal
//    and label, Open/NextBatch, per-member call counters), so the sweep
//    addresses every chain member.
#ifndef ULOAD_EXEC_FUSION_H_
#define ULOAD_EXEC_FUSION_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/physical.h"
#include "exec/plan_schemas.h"
#include "xml/node.h"

namespace uload {

class MaterializedView;   // storage/store.h
class ColumnarRowReader;  // storage/virtual_scan.h

// The stored columns an inline source copies into its pipeline, by position
// in the stored schema, ascending; nullopt keeps every column.
using KeptColumns = std::optional<std::vector<int>>;

// The document-navigation kernel of the fused Navigate step: resolves the
// source identifier to a store node, walks the navigation steps
// (child/descendant axes), and emits the input tuple with the nodes it
// reached under the step's join variant through EmitJoinVariant
// (exec/plan_schemas.h), the rule every executor join shares.
class NavigationCore {
 public:
  NavigationCore(const LogicalPlan* plan, const DocumentStore* doc);

  const LogicalPlan* plan() const { return plan_; }
  const DocumentStore* document() const { return doc_; }
  const SchemaPtr& emit_schema() const { return emit_schema_; }

  // Resolves the navigation source attribute against `input`. Fails when no
  // document is attached or the source attribute is nested.
  Status BindInput(const Schema& input);

  // Expands one input tuple into zero or more output tuples, appended to
  // `*out` in deterministic document order. Walks the document without
  // allocating: subtrees are row intervals (DocumentStore::SubtreeEnd).
  Status Expand(Tuple t, std::deque<Tuple>* out);

 private:
  void Collect(NodeIndex from, const NavStep& step,
               std::vector<NodeIndex>* out) const;

  const LogicalPlan* plan_;
  const DocumentStore* doc_;
  SchemaPtr emit_schema_;
  int lidx_ = 0;
  // Node scratch of Expand, reused across tuples.
  std::vector<NodeIndex> frontier_;
  std::vector<NodeIndex> next_;
};

class FusedPipelineBuilder;

// One pipeline: a source plus zero or more steps. Constructed exclusively
// through FusedPipelineBuilder.
class FusedPipelinePhys final : public PhysicalOperator {
 public:
  ~FusedPipelinePhys() override;

  enum class StepKind : uint8_t { kSelect, kProject, kNavigate,
                                  kDeriveParent, kRename, kRetype };
  enum class SourceKind : uint8_t { kRelation, kRows, kColumnar, kOperator };

  // Read-only view of one fused step, the verifier's surface: the recorded
  // boundary schemas/orders are the obligations fusion must discharge, and
  // the spec fields let the verifier re-derive them independently.
  struct StepView {
    StepKind kind;
    std::string label;
    const SchemaPtr* in_schema;
    const SchemaPtr* out_schema;
    const OrderDescriptor* in_order;
    const OrderDescriptor* out_order;
    const Predicate* pred = nullptr;                  // kSelect
    const std::vector<std::string>* attrs = nullptr;  // kProject
    const LogicalPlan* nav = nullptr;                 // kNavigate
    const LogicalPlan* derive = nullptr;              // kDeriveParent
    const std::string* prefix = nullptr;              // kRename
  };

  const SchemaPtr& schema() const override { return schema_; }
  const OrderDescriptor& order() const override { return order_; }
  std::string label() const override;
  std::vector<PhysicalOperator*> children() const override;
  PhysOpKind kind() const override { return PhysOpKind::kFusedPipeline; }
  OrderDescriptor ProvableOrder() const override;
  std::string Describe(int indent = 0) const override;
  std::string DescribeAnalyze(int indent = 0) const override;

  // --- Verification / introspection surface --------------------------------
  size_t step_count() const { return steps_.size(); }
  StepView step(size_t i) const;
  const SchemaPtr& source_schema() const { return src_schema_; }
  const OrderDescriptor& source_order() const;

  // Order propagation across one fused step (forward direction). Shared by
  // the fused operator and the plan verifier.
  static OrderDescriptor PropagateStepOrder(const StepView& s,
                                            const OrderDescriptor& in);

  // Testing only: corrupt the advertised composed schema/order so verifier
  // tests can prove a mis-fused plan is rejected.
  void CorruptSchemaForTesting(SchemaPtr s) { schema_ = std::move(s); }
  void CorruptStepSchemaForTesting(size_t i, SchemaPtr s);
  void CorruptOrderForTesting(OrderDescriptor o) { order_ = std::move(o); }

 protected:
  Status OpenImpl() override;
  Result<std::optional<TupleBatch>> NextBatchImpl() override;
  void CloseImpl() override;
  void BindChildren(ExecContext* ctx) override;

 private:
  friend class FusedPipelineBuilder;
  FusedPipelinePhys() = default;

  // Per-member attribution: a counter slot registered under the member's
  // label, plus the call counters fault injection keys on. Unbound pipelines fall back to a private slot (resolved lazily so
  // moving a Member never leaves a dangling self-pointer).
  struct Member {
    std::string label;
    OperatorMetrics local;
    OperatorMetrics* metrics = nullptr;
    int ordinal = -1;
    int64_t open_calls = 0;
    int64_t next_calls = 0;
    OperatorMetrics& slot() { return metrics != nullptr ? *metrics : local; }
    const OperatorMetrics& slot() const {
      return metrics != nullptr ? *metrics : local;
    }
  };

  struct Step {
    StepKind kind;
    SchemaPtr in_schema;
    SchemaPtr out_schema;
    OrderDescriptor in_order;
    OrderDescriptor out_order;
    Member member;
    // Spec (one of, per kind).
    PredicatePtr pred;                        // kSelect
    std::optional<TupleProjector> projector;  // kProject
    std::vector<std::string> attrs;           // kProject (for re-derivation)
    bool dedup = false;                       // kProject: first-wins dedup
    // kProject with dedup: the keys of every tuple emitted so far, and the
    // bytes they hold (charged to the pipeline once per output batch).
    std::set<std::string> seen;
    int64_t seen_bytes = 0;
    std::unique_ptr<NavigationCore> nav;      // kNavigate
    const LogicalPlan* derive = nullptr;      // kDeriveParent
    int derive_idx = 0;                       // kDeriveParent source column
    std::string prefix;                       // kRename
    // Navigate expansion scratch, reused across tuples.
    std::deque<Tuple> buf;
  };

  Status CheckMemberFaults(FaultSpec::Site site);
  // Pushes one source tuple through steps [i..) and emits survivors.
  Status Apply(size_t i, Tuple&& t, TupleBatch* out);
  void Emit(Tuple&& t, TupleBatch* out);
  // Relation-resident tuple at the current cursor without copying it, or
  // nullptr at end of stream (relation-backed sources only).
  const Tuple* PeekSourceTuple() const;
  // The kept columns of a relation-resident tuple, as the pipeline sees it.
  Tuple CopySourceRow(const Tuple& stored) const;
  // Derives every boundary order (and the advertised order) forward from
  // the source order.
  void RecomputeOrders();
  // Sets prefilter_step_ and prefilter_schema_ for the finished chain.
  void PlanPrefilter();

  SchemaPtr schema_;
  OrderDescriptor order_;
  std::vector<Step> steps_;

  // Source.
  SourceKind src_kind_ = SourceKind::kOperator;
  std::string src_label_;
  SchemaPtr src_schema_;
  OrderDescriptor src_order_;  // inline sources: declared; kOperator asks op
  Member src_member_;          // inline sources only
  const NestedRelation* src_rel_ = nullptr;    // kRelation / kRows
  std::vector<int64_t> src_rows_;              // kRows
  std::unique_ptr<ColumnarRowReader> src_reader_;  // kColumnar
  PhysicalPtr src_op_;                         // kOperator
  int64_t src_end_ = 0;  // kRelation / kRows row count
  // kRelation / kRows: the stored positions of src_schema_'s columns;
  // nullopt when the source keeps every stored column.
  KeptColumns src_keep_;

  // Cursors / runtime state.
  int64_t spos_ = 0;                  // kRelation/kRows cursor
  std::vector<NodeIndex> crows_;      // kColumnar decoded rows
  size_t cpos_ = 0;
  std::optional<TupleBatch> src_batch_;  // kOperator buffered batch
  size_t src_batch_pos_ = 0;
  bool src_done_ = false;
  std::deque<Tuple> pending_;  // overflow when a batch fills mid-expansion
  uint64_t ticks_ = 0;         // interior cancellation-check pacing
  int64_t uncharged_bytes_ = 0;  // dedup growth not yet charged
  // Index of the first kSelect step when every earlier step is
  // metadata-only (kRename/kRetype — positional fields untouched; kRetype
  // only when the source keeps every column) and the source is
  // relation-backed; -1 otherwise. The hot loop then evaluates
  // the predicate against the relation-resident tuple and copies only
  // survivors. Member counters are bumped as if every tuple were copied.
  int prefilter_step_ = -1;
  // The schema the prefilter resolves its predicate against: the stored
  // schema renamed by the leading steps, so positions are the stored row's
  // even when the source keeps fewer columns.
  SchemaPtr prefilter_schema_;
};

// Assembles a FusedPipelinePhys bottom-up: one source, then zero or more
// steps in execution order. Each Add* derives the step's output schema with
// the shared derivations of exec/plan_schemas.h and fails on type errors.
class FusedPipelineBuilder {
 public:
  FusedPipelineBuilder();
  ~FusedPipelineBuilder();

  // Exactly one source, set before any step. An inline source copies only
  // the `keep` columns and advertises the longest prefix of its declared
  // `order` over them: a relation's or row set's order is its binder's
  // declaration, a columnar view's is MaterializedView::order(). An
  // operator source advertises its own order().
  void SourceRelation(const NestedRelation* rel, std::string label,
                      KeptColumns keep = std::nullopt,
                      const OrderDescriptor& order = {});
  void SourceRows(const NestedRelation* data, std::vector<int64_t> rows,
                  std::string label, KeptColumns keep = std::nullopt,
                  const OrderDescriptor& order = {});
  void SourceColumnar(const MaterializedView* view, std::string label,
                      KeptColumns keep = std::nullopt);
  void SourceOperator(PhysicalPtr op);

  Status AddSelect(PredicatePtr pred);
  // `dedup` keeps only the first tuple of each distinct projection
  // (Project0_φ).
  Status AddProject(std::vector<std::string> attrs, bool dedup);
  Status AddNavigate(const LogicalPlan* plan, const DocumentStore* doc);
  // Appends the Dewey ancestor of `plan`'s id column at its target depth.
  Status AddDeriveParent(const LogicalPlan* plan);
  Status AddRename(std::string prefix);
  Status AddRetype(SchemaPtr schema);

  // Finalizes the pipeline. Fails when no source was set.
  Result<PhysicalPtr> Build();

 private:
  // Output schema of the pipeline built so far.
  const SchemaPtr& current_schema() const;
  // Installs a relation-backed source's schema and kept columns.
  void KeepRelationColumns(const NestedRelation* rel, KeptColumns keep);
  // Completes an inline source whose schema is installed.
  void InlineSource(FusedPipelinePhys::SourceKind kind, std::string label,
                    const OrderDescriptor& order);

  std::unique_ptr<FusedPipelinePhys> op_;
  bool has_source_ = false;
};

}  // namespace uload

#endif  // ULOAD_EXEC_FUSION_H_
