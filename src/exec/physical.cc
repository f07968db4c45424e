#include "exec/physical.h"

#include <chrono>
#include <deque>
#include <set>
#include <unordered_map>

#include "exec/fusion.h"
#include "exec/plan_schemas.h"
#include "storage/store.h"
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
  order_tail_.clear();
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
    if constexpr (kValidateBatches) {
      Status s = ValidateBatch(*schema(), **r);
      if (s.ok()) s = ValidateBatchOrder(order(), **r, &order_tail_);
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

namespace {

// Base with common bookkeeping.
class PhysBase : public PhysicalOperator {
 public:
  const SchemaPtr& schema() const override { return schema_; }
  const OrderDescriptor& order() const override { return order_; }

 protected:
  void CloseImpl() override {}

  // The build side of Sort_φ, the value joins and Product_φ: opens `input`
  // and moves its whole stream into `*out` (replacing what an earlier Open
  // left), checking the governor and charging the buffered bytes once per
  // batch, then closes it. An aborted drain (cancel, budget, injected fault)
  // leaves the input open; CloseBuild then closes it, which returns every
  // memory charge held below.
  Status DrainBuild(PhysicalOperator* input, TupleList* out) {
    out->clear();
    ReleaseMemory(held_bytes());
    ULOAD_RETURN_NOT_OK(input->Open());
    build_open_ = true;
    for (;;) {
      ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_ASSIGN_OR_RETURN(std::optional<TupleBatch> b, input->NextBatch());
      if (!b.has_value()) break;
      ULOAD_RETURN_NOT_OK(ChargeMemory(b->ApproxBytes()));
      for (Tuple& t : b->tuples()) out->push_back(std::move(t));
    }
    input->Close();
    build_open_ = false;
    return Status::Ok();
  }
  void CloseBuild(PhysicalOperator* input) {
    if (build_open_) input->Close();
    build_open_ = false;
  }

  SchemaPtr schema_ = Schema::Make({});
  OrderDescriptor order_;

 private:
  bool build_open_ = false;
};

// --- Sort_φ ------------------------------------------------------------------

class SortPhys : public PhysBase {
 public:
  SortPhys(PhysicalPtr input, OrderDescriptor order)
      : input_(std::move(input)), buffer_(input_->schema()) {
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
    ULOAD_RETURN_NOT_OK(DrainBuild(input_.get(), &buffer_.mutable_tuples()));
    ULOAD_RETURN_NOT_OK(SortBy(order_, &buffer_));
    pos_ = 0;
    return Status::Ok();
  }
  Result<std::optional<TupleBatch>> NextBatchImpl() override {
    if (pos_ >= buffer_.size()) return std::optional<TupleBatch>();
    // Each buffered tuple is handed out once, and the next Open refills the
    // buffer, so tuples move out.
    TupleBatch out = NewBatch();
    TupleList& tuples = buffer_.mutable_tuples();
    while (pos_ < buffer_.size() && !out.full()) {
      out.Add(std::move(tuples[pos_++]));
    }
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    CloseBuild(input_.get());
    buffer_ = NestedRelation(schema_);
  }

 private:
  PhysicalPtr input_;
  NestedRelation buffer_;
  int64_t pos_ = 0;
};

// --- Node-id order and containment ------------------------------------------

// The StackTree joins accept both identifier representations. (pre, post,
// depth) triples keep their label arithmetic; Dewey paths compare in
// document order and decide containment by prefix. Identifiers of different
// kinds never contain one another, so a join over mixed kinds is empty.
Status CheckNodeId(const AtomicValue& v) {
  if (v.kind() == AtomicValue::Kind::kSid ||
      v.kind() == AtomicValue::Kind::kDewey) {
    return Status::Ok();
  }
  return Status::TypeError("structural join over a non-identifier value " +
                           v.ToString());
}

bool BothSid(const AtomicValue& a, const AtomicValue& b) {
  return a.kind() == AtomicValue::Kind::kSid &&
         b.kind() == AtomicValue::Kind::kSid;
}

// `a` starts before `b` in document order.
bool StartsBefore(const AtomicValue& a, const AtomicValue& b) {
  if (BothSid(a, b)) return a.sid().pre < b.sid().pre;
  return AtomicValue::Compare(a, b) < 0;
}

// `a`'s subtree ends before `b`, given that `a` does not start after `b`:
// `a` is neither `b` nor one of its ancestors.
bool EndsBefore(const AtomicValue& a, const AtomicValue& b) {
  if (BothSid(a, b)) return a.sid().post < b.sid().post;
  return AtomicValue::Compare(a, b) != 0 && !AtomicValue::IsAncestorOf(a, b);
}

bool StructurallyRelated(Axis axis, const AtomicValue& a,
                         const AtomicValue& d) {
  if (BothSid(a, d)) {
    return axis == Axis::kChild ? IsParent(a.sid(), d.sid())
                                : IsAncestor(a.sid(), d.sid());
  }
  return axis == Axis::kChild ? AtomicValue::IsParentOf(a, d)
                              : AtomicValue::IsAncestorOf(a, d);
}

// --- The StackTree structural joins ------------------------------------------

// The cursor StackTreeDesc_φ and StackTreeAnc_φ share. Both inputs must be
// in document order on the join attributes (the compiler guarantees it).
// Consumption is cursor-style, a merge of two ordered streams, so both
// inputs are read through the NextTuple() adapter; production fills a whole
// output batch per call. Each descendant first pulls onto the stack every
// ancestor that starts before it, ending the ancestors whose subtree closed
// before it, and then matches every stack entry it lies under. Tuples with
// a null join id match nothing. The subclasses hold only the output rule,
// through the hooks below.
class StackTreePhys : public PhysBase {
 public:
  std::string label() const override {
    return name_ + "[" + anc_->schema()->attr(anc_idx_).name + " " +
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
    return JoinAttrOrder(child);
  }
  // Output follows the lead cursor: ordered on the lead side's join
  // attribute exactly when the lead input is.
  OrderDescriptor ProvableOrder() const override {
    const PhysicalOperator& lead = lead_ == 0 ? *anc_ : *desc_;
    return OrderCovers(lead.order(), JoinAttrOrder(lead_)) ? order_
                                                           : OrderDescriptor();
  }

 protected:
  // An ancestor whose subtree may still hold a future descendant; `seq`
  // numbers the ancestors in arrival (document) order from 0.
  struct OpenAncestor {
    Tuple t;
    int64_t seq;
  };

  // `name` prefixes the label; the output follows the ancestor cursor when
  // `follows_anc`, else the descendant cursor.
  StackTreePhys(std::string name, PhysicalPtr anc, PhysicalPtr desc,
                int anc_idx, int desc_idx, Axis axis, bool follows_anc)
      : name_(std::move(name)),
        anc_(std::move(anc)),
        desc_(std::move(desc)),
        anc_idx_(anc_idx),
        desc_idx_(desc_idx),
        axis_(axis),
        lead_(follows_anc ? 0 : 1) {
    order_ = JoinAttrOrder(lead_);
  }

  Status OpenImpl() override {
    ULOAD_RETURN_NOT_OK(anc_->Open());
    ULOAD_RETURN_NOT_OK(desc_->Open());
    Reset();
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
      if (desc_done_) break;
      // A selective join can consume many descendants before producing a
      // tuple; tick the cancellation check so latency stays bounded even
      // when the children hand over large prefetched batches.
      if ((++ticks_ & 1023) == 0) ULOAD_RETURN_NOT_OK(CheckControl());
      ULOAD_RETURN_NOT_OK(Step());
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    anc_->Close();
    desc_->Close();
    Reset();
  }

  // The output rule. Entered: an ancestor arrived. Matched: descendant `d`
  // lies under the open ancestor `a`. Ended: ancestor `a` is complete (no
  // current or future descendant lies under it); the rule may take its
  // tuple. Stepped: after each descendant, and once at the end of the
  // descendant stream (desc_done()). ResetOutput: clears the rule's state.
  virtual Status Entered(const Tuple& a) {
    (void)a;
    return Status::Ok();
  }
  virtual Status Matched(const OpenAncestor& a, const Tuple& d) = 0;
  virtual void Ended(OpenAncestor& a) { (void)a; }
  virtual Status Stepped() { return Status::Ok(); }
  virtual void ResetOutput() {}

  bool desc_done() const { return desc_done_; }
  const Schema& anc_schema() const { return *anc_->schema(); }
  const Schema& desc_schema() const { return *desc_->schema(); }

  // Pulls every remaining ancestor and ends every open one: once no
  // descendant is left, every ancestor is complete.
  Status EndAllAncestors() {
    while (next_anc_.has_value()) ULOAD_RETURN_NOT_OK(PullAncestor());
    while (!stack_.empty()) PopAncestor();
    return Status::Ok();
  }

  std::deque<Tuple> pending_;  // produced, not yet handed out

 private:
  // Document order on the join attribute of input `child` (0: ancestor).
  OrderDescriptor JoinAttrOrder(size_t child) const {
    return child == 0
               ? OrderDescriptor::On(anc_->schema()->attr(anc_idx_).name)
               : OrderDescriptor::On(desc_->schema()->attr(desc_idx_).name);
  }

  // Consumes one descendant, or the end of the descendant stream.
  Status Step() {
    ULOAD_ASSIGN_OR_RETURN(std::optional<Tuple> d, desc_->NextTuple());
    if (!d.has_value()) {
      desc_done_ = true;
      return Stepped();
    }
    const AtomicValue& did = d->fields[desc_idx_].atom();
    if (did.is_null()) return Status::Ok();
    ULOAD_RETURN_NOT_OK(CheckNodeId(did));
    while (next_anc_.has_value()) {
      const AtomicValue& aid = next_anc_->fields[anc_idx_].atom();
      if (!aid.is_null()) {
        ULOAD_RETURN_NOT_OK(CheckNodeId(aid));
        if (!StartsBefore(aid, did)) break;
      }
      ULOAD_RETURN_NOT_OK(PullAncestor());
    }
    // No current or future (document-ordered) descendant can fall inside an
    // ancestor whose subtree ended before this one.
    EndBefore(did);
    for (const OpenAncestor& a : stack_) {
      if (StructurallyRelated(axis_, a.t.fields[anc_idx_].atom(), did)) {
        ULOAD_RETURN_NOT_OK(Matched(a, *d));
      }
    }
    return Stepped();
  }

  // Moves the read-ahead ancestor, if any, onto the stack (or ends it at
  // once) and reads the next one.
  Status PullAncestor() {
    if (!next_anc_.has_value()) return Status::Ok();
    OpenAncestor a{std::move(*next_anc_), arrivals_++};
    ULOAD_RETURN_NOT_OK(Entered(a.t));
    const AtomicValue& aid = a.t.fields[anc_idx_].atom();
    if (aid.is_null()) {
      Ended(a);  // matches nothing: complete at once
    } else {
      ULOAD_RETURN_NOT_OK(CheckNodeId(aid));
      // Entries the new ancestor is disjoint from are complete: their whole
      // subtree precedes it, hence precedes every future descendant too.
      EndBefore(aid);
      stack_.push_back(std::move(a));
    }
    ULOAD_ASSIGN_OR_RETURN(next_anc_, anc_->NextTuple());
    return Status::Ok();
  }

  void EndBefore(const AtomicValue& id) {
    while (!stack_.empty() &&
           EndsBefore(stack_.back().t.fields[anc_idx_].atom(), id)) {
      PopAncestor();
    }
  }
  void PopAncestor() {
    Ended(stack_.back());
    stack_.pop_back();
  }

  void Reset() {
    stack_.clear();
    pending_.clear();
    desc_done_ = false;
    arrivals_ = 0;
    ResetOutput();
  }

  std::string name_;
  PhysicalPtr anc_;
  PhysicalPtr desc_;
  int anc_idx_;
  int desc_idx_;
  Axis axis_;
  size_t lead_;  // children() index of the input the output follows
  std::vector<OpenAncestor> stack_;  // outermost first
  std::optional<Tuple> next_anc_;
  bool desc_done_ = false;
  int64_t arrivals_ = 0;
  uint64_t ticks_ = 0;
};

// StackTreeDesc_φ (inner structural joins): each match is emitted at once
// as an (ancestor, descendant) pair, so the output follows the descendant
// cursor and an ended ancestor is simply dropped.
class StackTreeDescPhys : public StackTreePhys {
 public:
  StackTreeDescPhys(PhysicalPtr anc, PhysicalPtr desc, int anc_idx,
                    int desc_idx, Axis axis)
      : StackTreePhys("StackTreeDesc_phi", std::move(anc), std::move(desc),
                      anc_idx, desc_idx, axis, /*follows_anc=*/false) {
    schema_ = Schema::Concat(anc_schema(), desc_schema());
  }

 protected:
  Status Matched(const OpenAncestor& a, const Tuple& d) override {
    pending_.push_back(ConcatTuples(a.t, d));
    return Status::Ok();
  }
};

// StackTreeAnc_φ (semi / outer / nest structural joins): the output follows
// the ancestor cursor. Each ancestor accumulates its matching descendants
// and is emitted through EmitJoinVariant once complete. Ancestors nest, so
// an inner one completes before the outer one it lives in; the in-flight
// queue releases completed entries strictly front-first to keep the output
// in ancestor document order.
class StackTreeAncPhys : public StackTreePhys {
 public:
  StackTreeAncPhys(PhysicalPtr anc, PhysicalPtr desc, int anc_idx,
                   int desc_idx, Axis axis, JoinVariant variant,
                   const std::string& nest_as)
      : StackTreePhys(
            std::string("StackTreeAnc_phi:") + JoinVariantName(variant),
            std::move(anc), std::move(desc), anc_idx, desc_idx, axis,
            /*follows_anc=*/true),
        variant_(variant) {
    schema_ =
        JoinOutputSchema(anc_schema(), desc_schema(), variant, nest_as);
  }

 protected:
  Status Entered(const Tuple& a) override {
    inflight_.emplace_back();
    return TrackGrow(ApproxTupleBytes(a));
  }
  Status Matched(const OpenAncestor& a, const Tuple& d) override {
    ULOAD_RETURN_NOT_OK(TrackGrow(ApproxTupleBytes(d)));
    inflight_[a.seq - released_].matches.push_back(d);
    return Status::Ok();
  }
  void Ended(OpenAncestor& a) override {
    InFlight& f = inflight_[a.seq - released_];
    f.t = std::move(a.t);
    f.done = true;
  }
  Status Stepped() override {
    if (desc_done()) ULOAD_RETURN_NOT_OK(EndAllAncestors());
    while (!inflight_.empty() && inflight_.front().done) {
      InFlight& f = inflight_.front();
      // The nest accumulator hands its contents to the consumer here; its
      // bytes leave this operator's account.
      TrackShrink(ApproxTupleBytes(f.t) + ApproxTupleListBytes(f.matches));
      EmitJoinVariant(variant_, std::move(f.t), &f.matches, nullptr,
                      desc_schema(), &pending_);
      inflight_.pop_front();
      ++released_;
    }
    return Status::Ok();
  }
  void ResetOutput() override {
    inflight_.clear();
    released_ = 0;
  }

 private:
  // One arrived ancestor; `t` is filled in when it ends.
  struct InFlight {
    Tuple t;
    TupleList matches;
    bool done = false;
  };

  JoinVariant variant_;
  std::deque<InFlight> inflight_;  // arrival order, from ancestor `released_`
  int64_t released_ = 0;
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
    return OrderPrefixOver(left_->order(), *left_->schema());
  }

 protected:
  Status OpenImpl() override {
    hash_.clear();
    pending_.clear();
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
    ULOAD_RETURN_NOT_OK(left_->Open());
    // Build side: materialize right; hash it for equality joins.
    ULOAD_RETURN_NOT_OK(DrainBuild(right_.get(), &build_));
    if (cmp_ == Comparator::kEq) {
      for (size_t j = 0; j < build_.size(); ++j) {
        const AtomicValue& v = build_[j].fields[ridx_].atom();
        if (v.is_null()) continue;
        key_.clear();
        AppendEqualityKey(v, &key_);
        hash_[key_].push_back(j);
      }
      // The table is held until Close, beside the build tuples DrainBuild
      // charged: one key string and one row-index list per distinct value.
      int64_t bytes = static_cast<int64_t>(hash_.bucket_count() *
                                           sizeof(void*));
      for (const auto& [key, rows] : hash_) {
        bytes += static_cast<int64_t>(kHashEntryBytes + key.capacity() +
                                      rows.capacity() * sizeof(size_t));
      }
      ULOAD_RETURN_NOT_OK(ChargeMemory(bytes));
    }
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
      matches_.clear();
      const AtomicValue& lv = l->fields[lidx_].atom();
      if (cmp_ == Comparator::kEq) {
        // The key only narrows the candidates; operator== decides each.
        if (!lv.is_null()) {
          key_.clear();
          AppendEqualityKey(lv, &key_);
          auto it = hash_.find(key_);
          if (it != hash_.end()) {
            for (size_t j : it->second) {
              if (lv == build_[j].fields[ridx_].atom()) matches_.push_back(j);
            }
          }
        }
      } else {
        for (size_t j = 0; j < build_.size(); ++j) {
          if (CompareAtoms(lv, cmp_, build_[j].fields[ridx_].atom())) {
            matches_.push_back(j);
          }
        }
      }
      EmitJoinVariant(variant_, std::move(*l), &build_, &matches_,
                      *right_->schema(), &pending_);
    }
    if (out.empty()) return std::optional<TupleBatch>();
    return std::optional<TupleBatch>(std::move(out));
  }
  void CloseImpl() override {
    left_->Close();
    CloseBuild(right_.get());
    build_.clear();
    hash_.clear();
    pending_.clear();
  }

 private:
  PhysicalPtr left_;
  PhysicalPtr right_;
  std::string left_attr_;
  Comparator cmp_;
  std::string right_attr_;
  JoinVariant variant_;
  // A hash entry's fixed cost: its node, key string and row-index vector.
  static constexpr size_t kHashEntryBytes =
      2 * sizeof(void*) + sizeof(std::string) + sizeof(std::vector<size_t>);

  int lidx_ = 0;
  int ridx_ = 0;
  TupleList build_;
  std::unordered_map<std::string, std::vector<size_t>> hash_;
  std::string key_;               // probe-key scratch
  std::vector<size_t> matches_;   // build_ rows matching the current probe
  std::deque<Tuple> pending_;
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
    ULOAD_RETURN_NOT_OK(DrainBuild(right_.get(), &build_));
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
    CloseBuild(right_.get());
    build_.clear();
  }

 private:
  PhysicalPtr left_;
  PhysicalPtr right_;
  TupleList build_;
  std::optional<Tuple> cur_;
  size_t rpos_ = 0;
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

// --- Live-column analysis ----------------------------------------------------

// The attributes of an operator's output that its consumers read: all of
// them, or the named top-level ones. A dotted path makes its top-level
// collection live: pruning never reaches inside a collection.
class LiveSet {
 public:
  static LiveSet All() { return LiveSet(); }
  static LiveSet None() {
    LiveSet s;
    s.all_ = false;
    return s;
  }

  bool Has(const std::string& name) const {
    return all_ || names_.count(name) > 0;
  }
  void Add(const std::string& attr) {
    if (!all_) names_.insert(attr.substr(0, attr.find('.')));
  }
  void Remove(const std::string& name) { names_.erase(name); }
  void AddPredicate(const Predicate& pred) {
    if (!pred.lhs().empty()) Add(pred.lhs());
    if (!pred.rhs_attr().empty()) Add(pred.rhs_attr());
    if (pred.left() != nullptr) AddPredicate(*pred.left());
    if (pred.right() != nullptr) AddPredicate(*pred.right());
  }

  // What a fused chain member `n` reads of its input when its consumers
  // read `*this` of its output (DESIGN §11).
  LiveSet Below(const LogicalPlan& n) const {
    LiveSet in = *this;
    switch (n.op()) {
      case PlanOp::kSelect:
        in.AddPredicate(*n.predicate());
        break;
      case PlanOp::kProject:
        in = None();
        for (const std::string& a : n.attrs()) in.Add(a);
        break;
      case PlanOp::kNavigate: {
        SchemaPtr emitted = JoinOutputSchema(
            *Schema::Make({}), *NavigateEmitSchema(n.nav_emit()), n.variant(),
            n.nest_as().empty() ? n.nav_emit().prefix : n.nest_as());
        for (const Attribute& a : emitted->attrs()) in.Remove(a.name);
        in.Add(n.left_attr());
        break;
      }
      case PlanOp::kDeriveParent:
        in.Remove(n.nest_as());
        in.Add(n.left_attr());
        break;
      case PlanOp::kPrefixNames:
        if (all_) return All();
        in = None();
        for (const std::string& name : names_) {
          if (name.compare(0, n.nest_as().size(), n.nest_as()) == 0) {
            in.names_.insert(name.substr(n.nest_as().size()));
          }
        }
        break;
      default:  // kRetype works by position
        return All();
    }
    return in;
  }

  // The stored columns of `stored` a source keeps: nullopt when every one
  // is live.
  KeptColumns Keep(const Schema& stored) const {
    if (all_) return std::nullopt;
    std::vector<int> keep;
    for (int i = 0; i < stored.size(); ++i) {
      if (Has(stored.attr(i).name)) keep.push_back(i);
    }
    if (static_cast<int>(keep.size()) == stored.size()) return std::nullopt;
    return keep;
  }

 private:
  bool all_ = true;
  std::set<std::string> names_;
};

// What each input of the binary operator `p` must produce when its
// consumers read `live` of its output. Names are not split by side: each
// side's sources keep only the live names they store. A semijoin reads only
// the right side's join attribute; a nest variant keeps its right side
// whole, because the nested collection is never pruned.
std::pair<LiveSet, LiveSet> JoinInputsLive(const LogicalPlan& p,
                                           const LiveSet& live) {
  LiveSet left = live;
  left.Add(p.left_attr());
  LiveSet right = live;
  switch (p.variant()) {
    case JoinVariant::kSemi:
      right = LiveSet::None();
      break;
    case JoinVariant::kNestJoin:
    case JoinVariant::kNestOuter:
      right = LiveSet::All();
      break;
    default:
      break;
  }
  right.Add(p.right_attr());
  return {std::move(left), std::move(right)};
}

// --- Compiler ----------------------------------------------------------------

class Compiler {
 public:
  explicit Compiler(const EvalContext& ctx) : ctx_(ctx) {}

  Result<PhysicalPtr> Compile(const PlanPtr& plan) {
    // Keep the logical plan alive for operators that reference it.
    roots_.push_back(plan);
    // Every attribute of the plan's output is live.
    return Rec(*plan, LiveSet::All());
  }

  // Sort_φ elision sites of the last Compile(): each operator must keep
  // covering the order the elided enforcer would have established. Entries
  // point into the compiled tree; consume before it is destroyed.
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
  TakeObligations() {
    return std::move(obligations_);
  }

 private:
  // The one Sort_φ elision rule: `input` is returned as is when its
  // advertised order covers `required` — scans over document-ordered
  // extents satisfy structural-join requirements without an enforcer — and
  // is wrapped in Sort_φ otherwise. Every elision is recorded as an
  // obligation the plan verifier re-checks against the finished tree.
  PhysicalPtr EnsureOrder(PhysicalPtr input, OrderDescriptor required) {
    if (OrderCovers(input->order(), required)) {
      obligations_.emplace_back(input.get(), std::move(required));
      return input;
    }
    return std::make_unique<SortPhys>(std::move(input), std::move(required));
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

  // True when the logical operator is a unary chain member the fused
  // pipeline runs inline: Select, Project (first-wins dedup included),
  // Navigate, DeriveParent, Rename, Retype. Everything else — sorts, joins
  // (build side or StackTree buffering), Product/Union fan-in — breaks the
  // pipeline.
  static bool Fusable(const LogicalPlan& p) {
    switch (p.op()) {
      case PlanOp::kSelect:
      case PlanOp::kProject:
      case PlanOp::kNavigate:
      case PlanOp::kDeriveParent:
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
  // chain. That source is inline when it is a scan, an index binding or
  // Unit; otherwise it is the compiled breaker, which a chain-less pipeline
  // returns as is. The compiled operator outputs at least the `live`
  // attributes of `p`'s output; an inline source copies only what the chain
  // above it reads.
  Result<PhysicalPtr> Rec(const LogicalPlan& p, LiveSet live) {
    std::vector<const LogicalPlan*> chain;  // top -> bottom
    const LogicalPlan* cur = &p;
    while (Fusable(*cur)) {
      chain.push_back(cur);
      live = live.Below(*cur);
      cur = cur->left().get();
    }
    FusedPipelineBuilder b;
    ULOAD_ASSIGN_OR_RETURN(PhysicalPtr src, Source(*cur, live, &b));
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
        case PlanOp::kDeriveParent:
          ULOAD_RETURN_NOT_OK(b.AddDeriveParent(&n));
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

  // The source of the pipeline whose chain ends above `p`, which reads
  // `live` of it: either installed into `b` as an inline source (returns
  // null), or compiled as an operator.
  Result<PhysicalPtr> Source(const LogicalPlan& p, const LiveSet& live,
                             FusedPipelineBuilder* b) {
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
        if (columnar) {
          b->SourceColumnar(vit->second,
                            "ColumnarScan_phi(" + p.relation() + ")",
                            live.Keep(*vit->second->schema()));
        } else {
          const BoundRelation& rel = it->second;
          b->SourceRelation(rel.data, "Scan_phi(" + p.relation() + ")",
                            live.Keep(rel.data->schema()), rel.order);
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
                      "IndexScan_phi(" + p.relation() + ")",
                      live.Keep(bind.data->schema()), std::move(bind.order));
        return PhysicalPtr();
      }
      case PlanOp::kUnit: {
        // No attributes, one empty tuple; immutable, so plans share it.
        static const NestedRelation unit = [] {
          NestedRelation r(Schema::Make({}));
          r.Add(Tuple{});
          return r;
        }();
        b->SourceRelation(&unit, "Unit_phi");
        return PhysicalPtr();
      }
      case PlanOp::kProduct: {
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left(), live));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right(), live));
        return PhysicalPtr(
            std::make_unique<ProductPhys>(std::move(l), std::move(r)));
      }
      case PlanOp::kValueJoin: {
        auto [left_live, right_live] = JoinInputsLive(p, live);
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left(), left_live));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right(), right_live));
        return PhysicalPtr(std::make_unique<ValueJoinPhys>(
            std::move(l), std::move(r), p.left_attr(), p.comparator(),
            p.right_attr(), p.variant(), p.nest_as()));
      }
      case PlanOp::kStructuralJoin: {
        // Streaming StackTree for structural joins on top-level attrs:
        // StackTreeDesc (descendant-ordered output) for inner joins, the
        // ancestor-grouped StackTreeAnc for the semi/outer/nest variants.
        // Each child is compiled once and the join attributes are resolved
        // on what was compiled; a join on a nested attribute has no
        // streaming implementation.
        auto [left_live, right_live] = JoinInputsLive(p, live);
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left(), left_live));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right(), right_live));
        int anc_idx = 0;
        int desc_idx = 0;
        if (!JoinPositions(p, *l, *r, &anc_idx, &desc_idx)) {
          return Status::NotImplemented(
              "structural join on a nested attribute (" + p.left_attr() +
              ", " + p.right_attr() + ")");
        }
        PhysicalPtr anc =
            EnsureOrder(std::move(l), OrderDescriptor::On(p.left_attr()));
        PhysicalPtr desc =
            EnsureOrder(std::move(r), OrderDescriptor::On(p.right_attr()));
        if (p.variant() == JoinVariant::kInner) {
          return PhysicalPtr(std::make_unique<StackTreeDescPhys>(
              std::move(anc), std::move(desc), anc_idx, desc_idx, p.axis()));
        }
        return PhysicalPtr(std::make_unique<StackTreeAncPhys>(
            std::move(anc), std::move(desc), anc_idx, desc_idx, p.axis(),
            p.variant(), p.nest_as()));
      }
      case PlanOp::kUnion: {
        // Union works by position: both inputs keep every attribute.
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr l, Rec(*p.left(), LiveSet::All()));
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr r, Rec(*p.right(), LiveSet::All()));
        return PhysicalPtr(
            std::make_unique<UnionPhys>(std::move(l), std::move(r)));
      }
      case PlanOp::kSortOp: {
        // Sort_φ enforcer, elided when the input's order covers its keys.
        LiveSet in_live = live;
        std::vector<OrderKey> keys;
        for (const std::string& a : p.attrs()) {
          keys.push_back(OrderKey{a, true});
          in_live.Add(a);
        }
        ULOAD_ASSIGN_OR_RETURN(PhysicalPtr in, Rec(*p.left(), in_live));
        return EnsureOrder(std::move(in), OrderDescriptor(std::move(keys)));
      }
      case PlanOp::kSelect:
      case PlanOp::kProject:
      case PlanOp::kNavigate:
      case PlanOp::kDeriveParent:
      case PlanOp::kPrefixNames:
      case PlanOp::kRetype:
        break;
    }
    return Status::Internal("unhandled plan operator");
  }

  const EvalContext& ctx_;
  std::vector<PlanPtr> roots_;
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
      obligations_;
};

}  // namespace

Result<PhysicalPtr> CompilePhysicalPlan(const PlanPtr& plan,
                                        const EvalContext& ctx,
                                        ExecContext* exec) {
  Compiler compiler(ctx);
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
