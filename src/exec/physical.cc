#include "exec/physical.h"

#include <chrono>
#include <deque>
#include <unordered_map>

#include "exec/exchange.h"
#include "exec/fusion.h"
#include "exec/plan_schemas.h"
#include "exec/structural_join.h"
#include "opt/cost.h"
#include "storage/virtual_scan.h"
#include "verify/batch_validator.h"
#include "verify/plan_verifier.h"

namespace uload {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- PhysicalOperator template methods --------------------------------------

Status PhysicalOperator::Open() {
  adapter_batch_.reset();
  adapter_pos_ = 0;
  adapter_done_ = false;
  int64_t start = NowNs();
  if (control_ != nullptr) {
    Status c = control_->Check(start);
    if (!c.ok()) return c;
  }
  int64_t call = open_calls_++;
  if (fault_ != nullptr &&
      fault_->ShouldFail(op_ordinal_, label(), FaultSpec::Site::kOpen, call)) {
    return Status::Internal("injected fault: Open of " + label());
  }
  Status s = OpenImpl();
  metrics_->open_ns += NowNs() - start;
  return s;
}

Result<std::optional<TupleBatch>> PhysicalOperator::NextBatch() {
  int64_t start = NowNs();
  // Cooperative cancellation/deadline: every batch boundary is a check
  // point, reusing the clock read the metrics need anyway.
  if (control_ != nullptr) {
    Status c = control_->Check(start);
    if (!c.ok()) return c;
  }
  int64_t call = next_calls_++;
  if (fault_ != nullptr &&
      fault_->ShouldFail(op_ordinal_, label(), FaultSpec::Site::kNextBatch,
                         call)) {
    return Status::Internal("injected fault: NextBatch of " + label());
  }
  Result<std::optional<TupleBatch>> r = NextBatchImpl();
  metrics_->next_ns += NowNs() - start;
  if (r.ok() && r->has_value()) {
    metrics_->batches_produced += 1;
    metrics_->tuples_produced += static_cast<int64_t>((*r)->size());
    if (memory_ != nullptr) {
      // Transient charge of the streamed batch: enforces the budget and
      // records the tracker peak at batch granularity without holding the
      // bytes beyond the handoff (the consumer owns the batch).
      int64_t bytes = (*r)->ApproxBytes();
      Status ms = memory_->Charge(bytes);
      if (!ms.ok()) return ms;
      memory_->Release(bytes);
      if (metrics_->peak_bytes < held_bytes_ + bytes) {
        metrics_->peak_bytes = held_bytes_ + bytes;
      }
    }
    if (validate_batches_) {
      Status s = ValidateBatch(*schema(), **r);
      if (!s.ok()) {
        return Status::Internal("batch validation failed in " + label() +
                                ": " + s.message());
      }
    }
  }
  return r;
}

void PhysicalOperator::Close() {
  CloseImpl();
  // Whatever the implementation still held (error/cancel paths included)
  // goes back to the tracker: an aborted query leaves no charge behind.
  ReleaseAllMemory();
}

Status PhysicalOperator::CheckControl() {
  if (control_ == nullptr) return Status::Ok();
  return control_->Check(NowNs());
}

Status PhysicalOperator::ChargeMemory(int64_t bytes) {
  if (bytes <= 0) return Status::Ok();
  if (memory_ != nullptr) ULOAD_RETURN_NOT_OK(memory_->Charge(bytes));
  held_bytes_ += bytes;
  if (metrics_->peak_bytes < held_bytes_) metrics_->peak_bytes = held_bytes_;
  return Status::Ok();
}

void PhysicalOperator::ReleaseMemory(int64_t bytes) {
  if (bytes <= 0) return;
  held_bytes_ -= bytes;
  if (held_bytes_ < 0) held_bytes_ = 0;
  if (memory_ != nullptr) memory_->Release(bytes);
}

Status PhysicalOperator::TrackGrow(int64_t bytes) {
  deferred_bytes_ += bytes;
  if (deferred_bytes_ < (int64_t{1} << 16)) return Status::Ok();
  int64_t b = deferred_bytes_;
  deferred_bytes_ = 0;
  return ChargeMemory(b);
}

void PhysicalOperator::TrackShrink(int64_t bytes) {
  deferred_bytes_ -= bytes;
  if (deferred_bytes_ > -(int64_t{1} << 16)) return;
  ReleaseMemory(-deferred_bytes_);
  deferred_bytes_ = 0;
}

void PhysicalOperator::ReleaseAllMemory() {
  if (held_bytes_ > 0 && memory_ != nullptr) memory_->Release(held_bytes_);
  held_bytes_ = 0;
  deferred_bytes_ = 0;
}

Result<std::optional<Tuple>> PhysicalOperator::NextTuple() {
  for (;;) {
    if (adapter_batch_.has_value() && adapter_pos_ < adapter_batch_->size()) {
      return std::optional<Tuple>(
          std::move(adapter_batch_->tuple(adapter_pos_++)));
    }
    if (adapter_done_) return std::optional<Tuple>();
    ULOAD_ASSIGN_OR_RETURN(adapter_batch_, NextBatch());
    adapter_pos_ = 0;
    if (!adapter_batch_.has_value()) {
      adapter_done_ = true;
      return std::optional<Tuple>();
    }
  }
}

std::string PhysicalOperator::Describe(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += "\n";
  for (const PhysicalOperator* c : children()) out += c->Describe(indent + 1);
  return out;
}

std::string PhysicalOperator::DescribeAnalyze(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += "  [" + metrics_->ToString() + "]\n";
  for (const PhysicalOperator* c : children()) {
    out += c->DescribeAnalyze(indent + 1);
  }
  return out;
}

void PhysicalOperator::Bind(ExecContext* ctx) {
  batch_size_ = ctx->batch_size();
  validate_batches_ = ctx->validate_batches();
  // Registration ordinal doubles as the fault-point address: stable across
  // runs of the same plan, enumerable by sweeping [0, metric_count()).
  metrics_ = ctx->Register(label(), &op_ordinal_);
  control_ = ctx->control();
  memory_ = ctx->memory_tracker();
  fault_ = ctx->fault().enabled() ? &ctx->fault() : nullptr;
  open_calls_ = 0;
  next_calls_ = 0;
  held_bytes_ = 0;
  deferred_bytes_ = 0;
  BindChildren(ctx);
}

void PhysicalOperator::BindChildren(ExecContext* ctx) {
  for (PhysicalOperator* c : children()) c->Bind(ctx);
}

void PhysicalOperator::MergeMetricsFrom(PhysicalOperator& other) {
  metrics_->MergeFrom(*other.metrics_);
  other.metrics_->Reset();
  std::vector<PhysicalOperator*> mine = children();
  std::vector<PhysicalOperator*> theirs = other.children();
  for (size_t i = 0; i < mine.size() && i < theirs.size(); ++i) {
    mine[i]->MergeMetricsFrom(*theirs[i]);
  }
}

namespace {

// Base with common bookkeeping.
class PhysBase : public PhysicalOperator {
 public:
  const SchemaPtr& schema() const override { return schema_; }
  const OrderDescriptor& order() const override { return order_; }

 protected:
  void CloseImpl() override {}

  SchemaPtr schema_ = Schema::Make({});
  OrderDescriptor order_;
};

// --- Sort_φ ------------------------------------------------------------------

class SortPhys : public PhysBase {
 public:
  SortPhys(PhysicalPtr input, OrderDescriptor order)
      : input_(std::move(input)) {
    schema_ = input_->schema();
    order_ = std::move(order);
  }
  std::string label() const override {
    return "Sort_phi" + order_.ToString();
  }
  std::vector<PhysicalOperator*> children() const override {
    return {input_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kSort; }
  // The sort *establishes* its advertised order regardless of the input's;
  // its advertised order is always provable.
  OrderDescriptor ProvableOrder() const override { return order_; }

 protected:
  Status OpenImpl() override {
    buffer_ = NestedRelation(schema_);
    ReleaseMemory(held_bytes());
    ULOAD_RETURN_NOT_OK(input_->Open());
    input_open_ = true;
    for (;;) {
      // Materialization loop: check cancellation and charge the buffered
      // bytes once per consumed batch.
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b,
                             input_->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) buffer_.Add(std::move(t));
    }
    input_->Close();
    input_open_ = false;
    ULOAD_RETURN_NOT_OK(SortBy(order_, &buffer_));
    pos_ = 0;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    if (pos_ >= buffer_.size()) return std::optional<TupleBatch>();
    TupleBatch out = NewBatch();
    while (pos_ < buffer_.size() && !out.full()) out.Add(buffer_.tuple(pos_++));
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    // Normally the input is already closed at the end of materialization;
    // an aborted Open() (cancel, budget, injected fault) leaves it open and
    // this close is what drains/joins any exchange below.
    if (input_open_) {
      input_->Close();
      input_open_ = false;
    }
    buffer_ = NestedRelation(schema_);
  }

 private:
  PhysicalPtr input_;
  NestedRelation buffer_;
  int64_t pos_ = 0;
  bool input_open_ = false;
};

// --- Streaming StackTreeDesc_φ (inner structural joins) ----------------------

// Requires both inputs in document order on the join attributes (the
// compiler guarantees it). Produces pairs ordered by the descendant side.
// Consumption is inherently cursor-style (merge of two ordered streams), so
// both inputs are read through the NextTuple() adapter; production fills a
// whole output batch per call.
class StackTreeDescPhys : public PhysBase {
 public:
  StackTreeDescPhys(PhysicalPtr anc, PhysicalPtr desc, int anc_idx,
                    int desc_idx, Axis axis)
      : anc_(std::move(anc)),
        desc_(std::move(desc)),
        anc_idx_(anc_idx),
        desc_idx_(desc_idx),
        axis_(axis) {
    schema_ = Schema::Concat(*anc_->schema(), *desc_->schema());
    order_ = OrderDescriptor::On(desc_->schema()->attr(desc_idx).name);
  }
  std::string label() const override {
    return "StackTreeDesc_phi[" + anc_->schema()->attr(anc_idx_).name + " " +
           (axis_ == Axis::kChild ? "parent-of" : "ancestor-of") + " " +
           desc_->schema()->attr(desc_idx_).name + "]";
  }
  std::vector<PhysicalOperator*> children() const override {
    return {anc_.get(), desc_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kStructuralJoin; }
  // The stack merge is only correct over document-ordered inputs.
  OrderDescriptor RequiredChildOrder(size_t child) const override {
    return child == 0
               ? OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name)
               : OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
  }
  // Output follows the descendant cursor: ordered on the descendant
  // attribute exactly when the descendant input is.
  OrderDescriptor ProvableOrder() const override {
    OrderDescriptor req =
        OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
    return OrderCovers(desc_->order(), req) ? order_ : OrderDescriptor();
  }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(anc_->Open());
    ULOAD_RETURN_NOT_OK(desc_->Open());
    stack_.clear();
    pending_.clear();
    ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (!pending_.empty()) {
        out.Add(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      // A selective join can consume many descendants before producing a
      // tuple; tick the cancellation check so latency stays bounded even
      // when the children hand over large prefetched batches.
      if ((++ticks_ & 1023) == 0) ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> d, desc_->NextTuple());
      if (!d.has_value()) break;
      const AtomicValue& did = d->fields[desc_idx_].atom();
      if (did.kind() != AtomicValue::Kind::kSid) {
        return Status::TypeError(
            "streaming structural join requires (pre, post, depth) ids");
      }
      // Pull ancestors that start before this descendant.
      while (next_anc_.has_value()) {
        const AtomicValue& aid = next_anc_->fields[anc_idx_].atom();
        if (aid.kind() != AtomicValue::Kind::kSid) {
          return Status::TypeError(
              "streaming structural join requires (pre, post, depth) ids");
        }
        if (aid.sid().pre >= did.sid().pre) break;
        while (!stack_.empty() &&
               stack_.back().fields[anc_idx_].atom().sid().post <
                   aid.sid().post) {
          stack_.pop_back();
        }
        stack_.push_back(std::move(*next_anc_));
        ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
      }
      // Pop finished ancestors.
      while (!stack_.empty() &&
             stack_.back().fields[anc_idx_].atom().sid().post <
                 did.sid().post) {
        stack_.pop_back();
      }
      for (const Tuple& a : stack_) {
        const StructuralId& asid = a.fields[anc_idx_].atom().sid();
        bool match = axis_ == Axis::kChild ? IsParent(asid, did.sid())
                                           : IsAncestor(asid, did.sid());
        if (match) pending_.push_back(ConcatTuples(a, *d));
      }
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    anc_->Close();
    desc_->Close();
  }

 private:
  PhysicalPtr anc_;
  PhysicalPtr desc_;
  int anc_idx_;
  int desc_idx_;
  Axis axis_;
  std::vector<Tuple> stack_;
  std::deque<Tuple> pending_;
  std::optional<Tuple> next_anc_;
  uint64_t ticks_ = 0;
};

// --- Streaming StackTreeAnc_φ (semi / outer / nest structural joins) ---------

// The ancestor-grouped counterpart of StackTreeDescPhys: both inputs in
// document order on the join attributes, output follows the *ancestor* side.
// Each in-flight ancestor accumulates its matching descendants; it is
// complete once the descendant cursor has passed its subtree. Ancestors
// nest, so an inner one completes before the outer one it lives in — the
// in-flight queue releases completed entries strictly front-first to keep
// the output in ancestor document order. Tuples with a null join id match
// nothing (outer/nest variants still emit them, padded/empty).
class StackTreeVariantPhys : public PhysBase {
 public:
  StackTreeVariantPhys(PhysicalPtr anc, PhysicalPtr desc, int anc_idx,
                       int desc_idx, Axis axis, JoinVariant variant,
                       const std::string& nest_as)
      : anc_(std::move(anc)),
        desc_(std::move(desc)),
        anc_idx_(anc_idx),
        desc_idx_(desc_idx),
        axis_(axis),
        variant_(variant) {
    schema_ = JoinOutputSchema(*anc_->schema(), *desc_->schema(), variant,
                               nest_as);
    order_ = OrderDescriptor::On(anc_->schema()->attr(anc_idx).name);
  }
  std::string label() const override {
    return std::string("StackTreeAnc_phi:") + JoinVariantName(variant_) +
           "[" + anc_->schema()->attr(anc_idx_).name + " " +
           (axis_ == Axis::kChild ? "parent-of" : "ancestor-of") + " " +
           desc_->schema()->attr(desc_idx_).name + "]";
  }
  std::vector<PhysicalOperator*> children() const override {
    return {anc_.get(), desc_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kStructuralJoin; }
  // Both cursors must advance in document order for the stack discipline to
  // see every (ancestor, descendant) containment.
  OrderDescriptor RequiredChildOrder(size_t child) const override {
    return child == 0
               ? OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name)
               : OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
  }
  // Output follows the ancestor queue: ordered on the ancestor attribute
  // exactly when the ancestor input is.
  OrderDescriptor ProvableOrder() const override {
    OrderDescriptor req =
        OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name);
    return OrderCovers(anc_->order(), req) ? order_ : OrderDescriptor();
  }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(anc_->Open());
    ULOAD_RETURN_NOT_OK(desc_->Open());
    inflight_.clear();
    stack_.clear();
    pending_.clear();
    desc_done_ = false;
    ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (!pending_.empty()) {
        out.Add(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      if (desc_done_ && inflight_.empty() && !next_anc_.has_value()) break;
      // Same bounded-latency cancellation tick as StackTreeDesc_φ.
      if ((++ticks_ & 1023) == 0) ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_RETURN_NOT_OK(Advance());
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    anc_->Close();
    desc_->Close();
    inflight_.clear();
    stack_.clear();
    pending_.clear();
  }

 private:
  struct AncState {
    Tuple t;
    TupleList matches;
    bool done = false;
  };

  // Consumes one descendant (or the end of the descendant stream), then
  // releases every completed front-of-queue ancestor into pending_.
  Status Advance() {
    ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> d, desc_->NextTuple());
    if (!d.has_value()) {
      desc_done_ = true;
      // No future descendant exists: every ancestor still pending is done.
      while (next_anc_.has_value()) {
        ULOAD_RETURN_NOT_OK(PushAncestor(std::move(*next_anc_)));
        ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
      }
      for (AncState& a : inflight_) a.done = true;
      stack_.clear();
      Release();
      return Status::Ok();
    }
    const AtomicValue& did = d->fields[desc_idx_].atom();
    if (did.is_null()) return Status::Ok();  // null ids match nothing
    if (did.kind() != AtomicValue::Kind::kSid) {
      return Status::TypeError(
          "streaming structural join requires (pre, post, depth) ids");
    }
    // Pull ancestors that start before this descendant.
    while (next_anc_.has_value()) {
      const AtomicValue& aid = next_anc_->fields[anc_idx_].atom();
      if (!aid.is_null()) {
        if (aid.kind() != AtomicValue::Kind::kSid) {
          return Status::TypeError(
              "streaming structural join requires (pre, post, depth) ids");
        }
        if (aid.sid().pre >= did.sid().pre) break;
      }
      ULOAD_RETURN_NOT_OK(PushAncestor(std::move(*next_anc_)));
      ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    }
    // Ancestors whose subtree ended before this descendant are complete —
    // no current or future descendant (pre-ascending) can fall inside them.
    while (!stack_.empty() &&
           stack_.back()->t.fields[anc_idx_].atom().sid().post <
               did.sid().post) {
      stack_.back()->done = true;
      stack_.pop_back();
    }
    int64_t d_bytes = -1;
    for (AncState* a : stack_) {
      const StructuralId& asid = a->t.fields[anc_idx_].atom().sid();
      bool match = axis_ == Axis::kChild ? IsParent(asid, did.sid())
                                         : IsAncestor(asid, did.sid());
      if (match) {
        if (d_bytes < 0) d_bytes = ApproxTupleBytes(*d);
        ULOAD_RETURN_NOT_OK(TrackGrow(d_bytes));
        a->matches.push_back(*d);
      }
    }
    Release();
    return Status::Ok();
  }

  Status PushAncestor(Tuple t) {
    ULOAD_RETURN_NOT_OK(TrackGrow(ApproxTupleBytes(t)));
    const AtomicValue& aid = t.fields[anc_idx_].atom();
    if (aid.is_null()) {
      // Null ids match nothing and need no stack entry; completed at once.
      inflight_.push_back(AncState{std::move(t), {}, true});
      return Status::Ok();
    }
    if (aid.kind() != AtomicValue::Kind::kSid) {
      return Status::TypeError(
          "streaming structural join requires (pre, post, depth) ids");
    }
    // Entries the new ancestor is disjoint from are complete: their whole
    // subtree precedes it, hence precedes every future descendant too.
    while (!stack_.empty() &&
           stack_.back()->t.fields[anc_idx_].atom().sid().post <
               aid.sid().post) {
      stack_.back()->done = true;
      stack_.pop_back();
    }
    inflight_.push_back(AncState{std::move(t), {}, false});
    stack_.push_back(&inflight_.back());
    return Status::Ok();
  }

  void Release() {
    while (!inflight_.empty() && inflight_.front().done) {
      AncState& a = inflight_.front();
      // The nest accumulator hands its contents to the consumer here; its
      // bytes leave this operator's account.
      TrackShrink(ApproxTupleBytes(a.t) + ApproxTupleListBytes(a.matches));
      switch (variant_) {
        case JoinVariant::kInner:
          for (Tuple& m : a.matches) {
            pending_.push_back(ConcatTuples(a.t, m));
          }
          break;
        case JoinVariant::kSemi:
          if (!a.matches.empty()) pending_.push_back(std::move(a.t));
          break;
        case JoinVariant::kLeftOuter:
          if (a.matches.empty()) {
            pending_.push_back(
                ConcatTuples(a.t, NullTuple(*desc_->schema())));
          } else {
            for (Tuple& m : a.matches) {
              pending_.push_back(ConcatTuples(a.t, m));
            }
          }
          break;
        case JoinVariant::kNestJoin:
          if (a.matches.empty()) break;
          [[fallthrough]];
        case JoinVariant::kNestOuter: {
          Tuple t = std::move(a.t);
          t.fields.emplace_back(std::move(a.matches));
          pending_.push_back(std::move(t));
          break;
        }
      }
      inflight_.pop_front();
    }
  }

  PhysicalPtr anc_;
  PhysicalPtr desc_;
  int anc_idx_;
  int desc_idx_;
  Axis axis_;
  JoinVariant variant_;
  // In-flight ancestors in arrival (document) order; a deque keeps the
  // stack_ pointers stable across push_back/pop_front.
  std::deque<AncState> inflight_;
  std::vector<AncState*> stack_;
  std::deque<Tuple> pending_;
  std::optional<Tuple> next_anc_;
  bool desc_done_ = false;
  uint64_t ticks_ = 0;
};

// --- Hash join / generic value join -----------------------------------------

class ValueJoinPhys : public PhysBase {
 public:
  ValueJoinPhys(PhysicalPtr left, PhysicalPtr right, std::string left_attr,
                Comparator cmp, std::string right_attr, JoinVariant variant,
                std::string nest_as)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_attr_(std::move(left_attr)),
        cmp_(cmp),
        right_attr_(std::move(right_attr)),
        variant_(variant) {
    schema_ = JoinOutputSchema(*left_->schema(), *right_->schema(), variant,
                               nest_as);
    order_ = left_->order();
  }
  std::string label() const override {
    std::string name =
        cmp_ == Comparator::kEq ? "HashJoin_phi" : "NestedLoopJoin_phi";
    return name + ":" + JoinVariantName(variant_) + "[" + left_attr_ + " " +
           ComparatorName(cmp_) + " " + right_attr_ + "]";
  }
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kValueJoin; }
  // The probe side streams in order, so the left input's order survives for
  // the longest key prefix over surviving left attributes.
  OrderDescriptor ProvableOrder() const override {
    std::vector<OrderKey> kept;
    for (const OrderKey& k : left_->order().keys()) {
      if (!ResolveAttrPath(*left_->schema(), k.attr).ok()) break;
      kept.push_back(k);
    }
    return OrderDescriptor(std::move(kept));
  }
  // The probe side streams in order and each left tuple's matches are
  // emitted consecutively, so the left input's order survives for keys over
  // left attributes.
  bool TryAdoptOrder(const OrderDescriptor& order) override {
    for (const OrderKey& k : order.keys()) {
      if (!ResolveAttrPath(*left_->schema(), k.attr).ok()) return false;
    }
    if (!left_->TryAdoptOrder(order)) return false;
    order_ = order;
    return true;
  }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(left_->Open());
    ULOAD_RETURN_NOT_OK(right_->Open());
    // Build side: materialize right; hash it for equality joins.
    build_.clear();
    hash_.clear();
    pending_.clear();
    ReleaseMemory(held_bytes());
    ULOAD_ASSIGN_OR_RETURN(AttrPath rp,
                           ResolveAttrPath(*right_->schema(), right_attr_));
    if (rp.size() != 1) {
      return Status::NotImplemented("physical join on nested right attr");
    }
    ridx_ = rp[0];
    ULOAD_ASSIGN_OR_RETURN(AttrPath lp,
                           ResolveAttrPath(*left_->schema(), left_attr_));
    if (lp.size() != 1) {
      return Status::NotImplemented("physical join on nested left attr");
    }
    lidx_ = lp[0];
    right_open_ = true;
    for (;;) {
      // Hash-build loop: cancellation check + budget charge per batch.
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b,
                             right_->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) {
        if (cmp_ == Comparator::kEq) {
          const AtomicValue& v = t.fields[ridx_].atom();
          if (!v.is_null()) hash_[v.ToString()].push_back(build_.size());
        }
        build_.push_back(std::move(t));
      }
    }
    right_->Close();
    right_open_ = false;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (!pending_.empty()) {
        out.Add(std::move(pending_.front()));
        pending_.pop_front();
        continue;
      }
      ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> l, left_->NextTuple());
      if (!l.has_value()) break;
      std::vector<size_t> matches;
      const AtomicValue& lv = l->fields[lidx_].atom();
      if (cmp_ == Comparator::kEq) {
        if (!lv.is_null()) {
          auto it = hash_.find(lv.ToString());
          if (it != hash_.end()) matches = it->second;
        }
      } else {
        for (size_t j = 0; j < build_.size(); ++j) {
          if (CompareAtoms(lv, cmp_, build_[j].fields[ridx_].atom())) {
            matches.push_back(j);
          }
        }
      }
      Emit(*l, matches);
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    left_->Close();
    // Open only when an aborted build left it open (see Sort_φ's CloseImpl).
    if (right_open_) {
      right_->Close();
      right_open_ = false;
    }
    build_.clear();
    hash_.clear();
    pending_.clear();
  }

 private:
  void Emit(const Tuple& l, const std::vector<size_t>& matches) {
    switch (variant_) {
      case JoinVariant::kInner:
        for (size_t j : matches) pending_.push_back(ConcatTuples(l, build_[j]));
        break;
      case JoinVariant::kSemi:
        if (!matches.empty()) pending_.push_back(l);
        break;
      case JoinVariant::kLeftOuter:
        if (matches.empty()) {
          pending_.push_back(ConcatTuples(l, NullTuple(*right_->schema())));
        } else {
          for (size_t j : matches) {
            pending_.push_back(ConcatTuples(l, build_[j]));
          }
        }
        break;
      case JoinVariant::kNestJoin:
      case JoinVariant::kNestOuter: {
        if (matches.empty() && variant_ == JoinVariant::kNestJoin) break;
        TupleList nested;
        for (size_t j : matches) nested.push_back(build_[j]);
        Tuple t = l;
        t.fields.emplace_back(std::move(nested));
        pending_.push_back(std::move(t));
        break;
      }
    }
  }

  PhysicalPtr left_;
  PhysicalPtr right_;
  std::string left_attr_;
  Comparator cmp_;
  std::string right_attr_;
  JoinVariant variant_;
  int lidx_ = 0;
  int ridx_ = 0;
  std::vector<Tuple> build_;
  std::unordered_map<std::string, std::vector<size_t>> hash_;
  std::deque<Tuple> pending_;
  bool right_open_ = false;
};

// --- Product -----------------------------------------------------------------

class ProductPhys : public PhysBase {
 public:
  ProductPhys(PhysicalPtr left, PhysicalPtr right)
      : left_(std::move(left)), right_(std::move(right)) {
    schema_ = Schema::Concat(*left_->schema(), *right_->schema());
    order_ = left_->order();
  }
  std::string label() const override { return "Product_phi"; }
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kProduct; }
  // Each left tuple's combinations are emitted consecutively, so the left
  // input's order survives.
  OrderDescriptor ProvableOrder() const override { return left_->order(); }

 protected:
  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(left_->Open());
    ULOAD_RETURN_NOT_OK(right_->Open());
    build_.clear();
    ReleaseMemory(held_bytes());
    right_open_ = true;
    for (;;) {
      // Build loop: cancellation check + budget charge per batch.
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b,
                             right_->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) build_.push_back(std::move(t));
    }
    right_->Close();
    right_open_ = false;
    cur_.reset();
    rpos_ = build_.size();
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    TupleBatch out = NewBatch();
    while (!out.full()) {
      if (rpos_ < build_.size()) {
        out.Add(ConcatTuples(*cur_, build_[rpos_++]));
        continue;
      }
      ULOAD_ASSIGN_OR_RETURN(cur_, left_->NextTuple());
      if (!cur_.has_value()) break;
      rpos_ = 0;
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    left_->Close();
    if (right_open_) {
      right_->Close();
      right_open_ = false;
    }
    build_.clear();
  }

 private:
  PhysicalPtr left_;
  PhysicalPtr right_;
  std::vector<Tuple> build_;
  std::optional<Tuple> cur_;
  size_t rpos_ = 0;
  bool right_open_ = false;
};

// --- Union -------------------------------------------------------------------

class UnionPhys : public PhysBase {
 public:
  UnionPhys(PhysicalPtr left, PhysicalPtr right)
      : left_(std::move(left)), right_(std::move(right)) {
    schema_ = left_->schema();
  }
  std::string label() const override { return "Union_phi"; }
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysOpKind kind() const override { return PhysOpKind::kUnion; }
  // Left-then-right concatenation proves no order across the seam.
  OrderDescriptor ProvableOrder() const override { return OrderDescriptor(); }

 protected:
  Status OpenImpl() override {
    on_right_ = false;
    ULOAD_RETURN_NOT_OK(left_->Open());
    return right_->Open();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    // Whole batches pass through; only the schema tag changes.
    if (!on_right_) {
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b, left_->NextBatch());
      if (b.has_value()) {
        b->set_schema(schema_);
        return b;
      }
      on_right_ = true;
    }
    ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b, right_->NextBatch());
    if (b.has_value()) b->set_schema(schema_);
    return b;
  }
  void CloseImpl() override {
    left_->Close();
    right_->Close();
  }

 private:
  PhysicalPtr left_;
  PhysicalPtr right_;
  bool on_right_ = false;
};

// --- Compiler ----------------------------------------------------------------

class Compiler {
 public:
  Compiler(const EvalContext& ctx, size_t thread_budget)
      : ctx_(ctx), thread_budget_(thread_budget == 0 ? 1 : thread_budget) {}

  Result<PhysicalPtr> Compile(const PlanPtr& plan) {
    // Keep the logical plan alive for operators that reference it.
    roots_.push_back(plan);
    return Rec(*plan);
  }

  // Sort_φ elision sites of the last Compile(): each operator must keep
  // covering the order the elided enforcer would have established. Entries
  // point into the compiled tree; consume before it is destroyed.
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
  TakeObligations() {
    return std::move(obligations_);
  }

 private:
  // Wraps `input` in Sort_φ unless the stream is already ordered on `attr`
  // or the operator can prove (TryAdoptOrder) that it is — scans over
  // document-ordered relations satisfy structural-join requirements without
  // an enforcer, serially and inside Exchange worker pipelines where a
  // replicated sort would be paid once per worker. Every elision is recorded
  // as an obligation the plan verifier re-checks against the finished tree.
  PhysicalPtr EnsureOrder(PhysicalPtr input, const std::string& attr) {
    OrderDescriptor required = OrderDescriptor::On(attr);
    if ((!input->order().empty() && input->order().keys()[0].attr == attr) ||
        input->TryAdoptOrder(required)) {
      obligations_.emplace_back(input.get(), std::move(required));
      return input;
    }
    return std::make_unique<SortPhys>(std::move(input),
                                      OrderDescriptor::On(attr));
  }

  // The Scan at the bottom of a Select* chain, or nullptr for any other
  // shape. Chains are the fragments cheap enough to replicate per worker.
  static const LogicalPlan* SelectChainLeaf(const LogicalPlan& p) {
    const LogicalPlan* cur = &p;
    while (cur->op() == PlanOp::kSelect) cur = cur->left().get();
    return cur->op() == PlanOp::kScan ? cur : nullptr;
  }

  void EnterPartition(const LogicalPlan* leaf, size_t nparts) {
    in_worker_ = true;
    part_leaf_ = leaf;
    nparts_ = nparts;
  }

  void LeavePartition() {
    in_worker_ = false;
    part_leaf_ = nullptr;
    nparts_ = 1;
    part_ = 0;
  }

  // Tuple count of a scannable leaf: a bound relation or a catalog view
  // (virtual extents report their row-set size without materializing);
  // -1 when the name resolves to neither.
  int64_t LeafSize(const std::string& name) const {
    auto it = ctx_.relations.find(name);
    if (it != ctx_.relations.end()) return it->second->size();
    auto vit = ctx_.views.find(name);
    if (vit != ctx_.views.end()) return vit->second->row_count();
    return -1;
  }

  // Positions of a structural join's attributes in its compiled inputs;
  // false when either is not a top-level attribute of its input.
  static bool JoinPositions(const LogicalPlan& p, const PhysicalOperator& anc,
                            const PhysicalOperator& desc, int* anc_idx,
                            int* desc_idx) {
    auto l = ResolveAttrPath(*anc.schema(), p.left_attr());
    auto r = ResolveAttrPath(*desc.schema(), p.right_attr());
    if (!l.ok() || !r.ok() || l->size() != 1 || r->size() != 1) return false;
    *anc_idx = (*l)[0];
    *desc_idx = (*r)[0];
    return true;
  }

  // Fans an eligible inner structural join out: the descendant side is a
  // Select*/Scan chain whose scan partitions into contiguous pre-order
  // ranges, the ancestor chain is replicated per worker (the join pulls
  // ancestors lazily, so each worker reads only the prefix its slice
  // needs). Worker streams are disjoint and locally ordered on the
  // descendant attribute, so ExchangeMerge reproduces the serial engine's
  // output exactly. Returns nullptr when the shape, the sizes or the join
  // attributes are not eligible.
  Result<PhysicalPtr> TryParallelStructuralJoin(const LogicalPlan& p) {
    if (in_worker_ || thread_budget_ < 2) return PhysicalPtr();
    const LogicalPlan* anc_leaf = SelectChainLeaf(*p.left());
    const LogicalPlan* desc_leaf = SelectChainLeaf(*p.right());
    // Distinct leaves required: partitioning is keyed by plan node, and a
    // shared node would slice the ancestor side too.
    if (anc_leaf == nullptr || desc_leaf == nullptr || anc_leaf == desc_leaf) {
      return PhysicalPtr();
    }
    int64_t dsize = LeafSize(desc_leaf->relation());
    if (dsize < 0) return PhysicalPtr();
    size_t n = ChooseWorkerCount(dsize, thread_budget_);
    if (n < 2) return PhysicalPtr();
    size_t mark = obligations_.size();
    std::vector<PhysicalPtr> workers;
    EnterPartition(desc_leaf, n);
    for (size_t w = 0; w < n; ++w) {
      part_ = w;
      Result<PhysicalPtr> l = Rec(*p.left());
      Result<PhysicalPtr> r = Rec(*p.right());
      if (!l.ok() || !r.ok()) {
        LeavePartition();
        return !l.ok() ? l.status() : r.status();
      }
      int anc_idx = 0;
      int desc_idx = 0;
      if (!JoinPositions(p, **l, **r, &anc_idx, &desc_idx)) {
        // Nested join attributes: the serial path materializes; the
        // discarded worker trees take their obligations with them.
        LeavePartition();
        obligations_.resize(mark);
        return PhysicalPtr();
      }
      PhysicalPtr anc = EnsureOrder(std::move(*l), p.left_attr());
      PhysicalPtr desc = EnsureOrder(std::move(*r), p.right_attr());
      workers.push_back(std::make_unique<StackTreeDescPhys>(
          std::move(anc), std::move(desc), anc_idx, desc_idx, p.axis()));
    }
    LeavePartition();
    return PhysicalPtr(
        std::make_unique<ExchangeMergePhys>(std::move(workers)));
  }

  // True when the logical operator is a unary chain member the fused
  // pipeline runs inline: Select, Project (first-wins dedup included),
  // Navigate, Rename, Retype. Everything else — sorts, joins (build side or
  // StackTree buffering), Product/Union fan-in, exchanges — breaks the
  // pipeline.
  static bool Fusable(const LogicalPlan& p) {
    switch (p.op()) {
      case PlanOp::kSelect:
      case PlanOp::kProject:
      case PlanOp::kNavigate:
      case PlanOp::kPrefixNames:
      case PlanOp::kRetype:
        return true;
      default:
        return false;
    }
  }

  // Compilation entry at a pipeline boundary: the maximal (possibly empty)
  // chain of unary operators rooted at `p` becomes one FusedPipeline_φ
  // running a single tuple loop (exec/fusion.h) over the source below the
  // chain. That source is inline when it is a non-partitioned scan, an
  // index binding, Unit or an evaluator fallback; otherwise it is the
  // compiled breaker (or partitioned scan), which a chain-less pipeline
  // returns as is.
  Result<PhysicalPtr> Rec(const LogicalPlan& p) {
    std::vector<const LogicalPlan*> chain;  // top -> bottom
    const LogicalPlan* cur = &p;
    while (Fusable(*cur)) {
      chain.push_back(cur);
      cur = cur->left().get();
    }
    FusedPipelineBuilder b;
    ULOAD_ASSIGN_OR_RETURN(PhysicalPtr src, Source(*cur, &b));
    if (src != nullptr) {
      if (chain.empty()) return src;
      b.SourceOperator(std::move(src));
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const LogicalPlan& n = **it;
      switch (n.op()) {
        case PlanOp::kSelect:
          ULOAD_RETURN_NOT_OK(b.AddSelect(n.predicate()));
          break;
        case PlanOp::kProject:
          ULOAD_RETURN_NOT_OK(b.AddProject(n.attrs(), n.dedup()));
          break;
        case PlanOp::kNavigate:
          ULOAD_RETURN_NOT_OK(b.AddNavigate(&n, ctx_.document));
          break;
        case PlanOp::kPrefixNames:
          ULOAD_RETURN_NOT_OK(b.AddRename(n.nest_as()));
          break;
        case PlanOp::kRetype:
          ULOAD_RETURN_NOT_OK(b.AddRetype(n.retype_schema()));
          break;
        default:
          return Status::Internal("non-fusable operator in fused chain");
      }
    }
    return b.Build();
  }

  // Fallback: evaluates the subtree with the materializing evaluator and
  // installs the result as the pipeline's inline source (operators without
  // a streaming implementation, e.g. nested-attribute structural joins).
  Result<PhysicalPtr> Materialize(const LogicalPlan& plan,
                                  const std::string& label,
                                  FusedPipelineBuilder* b) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation data, Evaluate(plan, ctx_));
    b->SourceOwnedRelation(std::move(data), label);
    return PhysicalPtr();
  }

  // The source of the pipeline whose chain ends above `p`: either installed
  // into `b` as an inline source (returns null), or compiled as an operator.
  Result<PhysicalPtr> Source(const LogicalPlan& p, FusedPipelineBuilder* b) {
    switch (p.op()) {
      case PlanOp::kScan: {
        // Virtual column-backed extents (storage/store.h) have no
        // materialized relation: their rows stream straight off the
        // columnar store. Materialized views resolve through `relations`.
        auto vit = ctx_.views.find(p.relation());
        bool columnar = vit != ctx_.views.end() &&
                        vit->second->virtual_store() != nullptr;
        auto it = ctx_.relations.find(p.relation());
        if (!columnar && it == ctx_.relations.end()) {
          return Status::NotFound("relation '" + p.relation() + "' unbound");
        }
        if (in_worker_ && part_leaf_ == &p) {
          if (columnar) {
            return PhysicalPtr(std::make_unique<ColumnarParallelScanPhys>(
                vit->second, p.relation(), part_, nparts_));
          }
          return PhysicalPtr(std::make_unique<ParallelScanPhys>(
              it->second, p.relation(), part_, nparts_));
        }
        if (columnar) {
          b->SourceColumnar(vit->second,
                            "ColumnarScan_phi(" + p.relation() + ")");
        } else {
          b->SourceRelation(it->second, "Scan_phi(" + p.relation() + ")");
        }
        return PhysicalPtr();
      }
      case PlanOp::kIndexScan: {
        // The storage layer's streaming binding: view data + matching row
        // ids, no per-query materialization.
        if (!ctx_.index_bind) {
          return Status::InvalidArgument("no index bind hook");
        }
        ULOAD_ASSIGN_OR_RETURN(IndexBinding bind,
                               ctx_.index_bind(p.relation(), p.bindings()));
        b->SourceRows(bind.data, std::move(bind.rows),
                      "IndexScan_phi(" + p.relation() + ")");
        return PhysicalPtr();
      }
      case PlanOp::kUnit: {
        NestedRelation unit(Schema::Make({}));
        unit.Add(Tuple{});
        b->SourceOwnedRelation(std::move(unit), "Unit_phi");
        return PhysicalPtr();
      }
      case PlanOp::kProduct: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right()));
        return PhysicalPtr(
            std::make_unique<ProductPhys>(std::move(l), std::move(r)));
      }
      case PlanOp::kValueJoin: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right()));
        return PhysicalPtr(std::make_unique<ValueJoinPhys>(
            std::move(l), std::move(r), p.left_attr(), p.comparator(),
            p.right_attr(), p.variant(), p.nest_as()));
      }
      case PlanOp::kStructuralJoin: {
        // Streaming StackTree for structural joins on top-level attrs:
        // StackTreeDesc (descendant-ordered output, Exchange-parallelizable)
        // for inner joins, the ancestor-grouped StackTreeAnc for the
        // semi/outer/nest variants. Each child is compiled once and the join
        // attributes are resolved on what was compiled; nested join
        // attributes fall back to the materializing evaluator.
        if (p.variant() == JoinVariant::kInner) {
          ULOAD_ASSIGN_OR_RETURN(PhysicalPtr par, TryParallelStructuralJoin(p));
          if (par) return par;
        }
        size_t mark = obligations_.size();
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right()));
        int anc_idx = 0;
        int desc_idx = 0;
        if (!JoinPositions(p, *l, *r, &anc_idx, &desc_idx)) {
          // The compiled children are discarded; so are their obligations.
          obligations_.resize(mark);
          return Materialize(p, "StackTreeAnc_phi(materialized)", b);
        }
        PhysicalPtr anc = EnsureOrder(std::move(l), p.left_attr());
        PhysicalPtr desc = EnsureOrder(std::move(r), p.right_attr());
        if (p.variant() == JoinVariant::kInner) {
          return PhysicalPtr(std::make_unique<StackTreeDescPhys>(
              std::move(anc), std::move(desc), anc_idx, desc_idx, p.axis()));
        }
        return PhysicalPtr(std::make_unique<StackTreeVariantPhys>(
            std::move(anc), std::move(desc), anc_idx, desc_idx, p.axis(),
            p.variant(), p.nest_as()));
      }
      case PlanOp::kUnion: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right()));
        return PhysicalPtr(
            std::make_unique<UnionPhys>(std::move(l), std::move(r)));
      }
      case PlanOp::kSortOp: {
        // Sort_φ enforcer with elision: skipped when the input's advertised
        // order already covers the requested keys, or when the input can
        // prove (TryAdoptOrder) that its data satisfies them.
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr in, Rec(*p.left()));
        std::vector<OrderKey> keys;
        for (const std::string& a : p.attrs()) {
          keys.push_back(OrderKey{a, true});
        }
        OrderDescriptor required(std::move(keys));
        if (OrderCovers(in->order(), required) ||
            in->TryAdoptOrder(required)) {
          obligations_.emplace_back(in.get(), required);
          return PhysicalPtr(std::move(in));
        }
        return PhysicalPtr(
            std::make_unique<SortPhys>(std::move(in), std::move(required)));
      }
      // Remaining operators materialize through the evaluator.
      case PlanOp::kDifference:
        return Materialize(p, "Difference_phi(materialized)", b);
      case PlanOp::kNest:
        return Materialize(p, "Nest_phi(materialized)", b);
      case PlanOp::kUnnest:
        return Materialize(p, "Unnest_phi(materialized)", b);
      case PlanOp::kXmlConstruct:
        return Materialize(p, "Xml_phi(materialized)", b);
      case PlanOp::kDeriveParent:
        return Materialize(p, "DeriveParent_phi(materialized)", b);
      case PlanOp::kSelect:
      case PlanOp::kProject:
      case PlanOp::kNavigate:
      case PlanOp::kPrefixNames:
      case PlanOp::kRetype:
        break;
    }
    return Status::Internal("unhandled plan operator");
  }

  const EvalContext& ctx_;
  size_t thread_budget_;
  // Worker-pipeline compilation state: while set, the scan at `part_leaf_`
  // compiles into slice `part_` of `nparts_`, and no nested exchange is
  // placed.
  bool in_worker_ = false;
  const LogicalPlan* part_leaf_ = nullptr;
  size_t part_ = 0;
  size_t nparts_ = 1;
  std::vector<PlanPtr> roots_;
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
      obligations_;
};

}  // namespace

Result<PhysicalPtr> CompilePhysicalPlan(const PlanPtr& plan,
                                        const EvalContext& ctx,
                                        ExecContext* exec) {
  Compiler compiler(ctx, exec == nullptr ? 1 : exec->thread_budget());
  ULOAD_ASSIGN_OR_RETURN(PhysicalPtr root, compiler.Compile(plan));
  if (exec != nullptr && exec->verify_plans()) {
    PhysicalVerifyOptions opts;
    opts.order_obligations = compiler.TakeObligations();
    ULOAD_RETURN_NOT_OK(VerifyPhysicalPlan(*root, opts));
  }
  if (exec != nullptr) root->Bind(exec);
  return root;
}

Status DrainPhysical(PhysicalOperator* root,
                     const std::function<Status(TupleBatch&)>& sink) {
  Status s = root->Open();
  while (s.ok()) {
    Result<std::optional<TupleBatch>> b = root->NextBatch();
    if (!b.ok()) {
      s = b.status();
    } else if (!b->has_value()) {
      break;
    } else {
      s = sink(**b);
    }
  }
  root->Close();
  return s;
}

Result<NestedRelation> ExecutePhysical(PhysicalOperator* root) {
  NestedRelation out(root->schema());
  ULOAD_RETURN_NOT_OK(DrainPhysical(root, [&out](TupleBatch& b) {
    for (Tuple& t : b.tuples()) out.Add(std::move(t));
    return Status::Ok();
  }));
  return out;
}

Result<NestedRelation> ExecutePhysicalPlan(const PlanPtr& plan,
                                           const EvalContext& ctx,
                                           ExecContext* exec) {
  ULOAD_ASSIGN_OR_RETURN(PhysicalPtr root,
                         CompilePhysicalPlan(plan, ctx, exec));
  return ExecutePhysical(root.get());
}

}  // namespace uload
