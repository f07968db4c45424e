#include "exec/fusion.h"

#include <utility>

#include "algebra/predicate.h"
#include "storage/virtual_scan.h"
#include "xml/document_store.h"

namespace uload {

// --- NavigationCore ----------------------------------------------------------

NavigationCore::NavigationCore(const LogicalPlan* plan,
                               const DocumentStore* doc)
    : plan_(plan), doc_(doc) {
  emit_schema_ = NavigateEmitSchema(plan_->nav_emit());
}

Status NavigationCore::BindInput(const Schema& input) {
  if (doc_ == nullptr) {
    return Status::InvalidArgument("Navigate_phi without a document");
  }
  ULOAD_ASSIGN_OR_RETURN(AttrPath lp,
                         ResolveAttrPath(input, plan_->left_attr()));
  if (lp.size() != 1) {
    return Status::NotImplemented("Navigate_phi from nested attribute");
  }
  lidx_ = lp[0];
  return Status::Ok();
}

Status NavigationCore::Expand(Tuple t, std::deque<Tuple>* out) {
  const AtomicValue& id = t.fields[lidx_].atom();
  frontier_.clear();
  if (id.kind() == AtomicValue::Kind::kSid) {
    NodeIndex n = doc_->NodeByPre(id.sid().pre);
    if (n != kNoNode) frontier_.push_back(n);
  } else if (id.kind() == AtomicValue::Kind::kDewey) {
    // Arc k is the k-th child: hop k - 1 sibling subtrees.
    NodeIndex cur = doc_->document_node();
    for (uint32_t arc : id.dewey()) {
      const NodeIndex end = doc_->SubtreeEnd(cur);
      NodeIndex c = cur + 1;
      for (uint32_t k = 1; k < arc && c < end; ++k) c = doc_->SubtreeEnd(c);
      if (arc == 0 || c >= end) {
        cur = kNoNode;
        break;
      }
      cur = c;
    }
    if (cur != kNoNode) frontier_.push_back(cur);
  }
  for (const NavStep& step : plan_->nav_steps()) {
    next_.clear();
    for (NodeIndex n : frontier_) Collect(n, step, &next_);
    frontier_.swap(next_);
  }
  const NavEmit& emit = plan_->nav_emit();
  TupleList results;
  results.reserve(frontier_.size());
  for (NodeIndex n : frontier_) {
    Tuple e;
    if (emit.id) {
      if (emit.id_kind == IdKind::kParental) {
        e.fields.emplace_back(AtomicValue::Dewey(doc_->Dewey(n)));
      } else {
        e.fields.emplace_back(AtomicValue::Sid(doc_->sid(n)));
      }
    }
    if (emit.tag) {
      e.fields.emplace_back(AtomicValue::String(std::string(doc_->label(n))));
    }
    if (emit.val) e.fields.emplace_back(AtomicValue::String(doc_->Value(n)));
    if (emit.cont) {
      e.fields.emplace_back(AtomicValue::String(doc_->Content(n)));
    }
    results.push_back(std::move(e));
  }
  EmitJoinVariant(plan_->variant(), std::move(t), &results, nullptr,
                  *emit_schema_, out);
  return Status::Ok();
}

void NavigationCore::Collect(NodeIndex from, const NavStep& step,
                             std::vector<NodeIndex>* out) const {
  auto matches = [&](NodeIndex n) {
    if (step.label.empty()) return doc_->is_element(n);
    if (step.label == "#text") return doc_->is_text(n);
    if (step.label[0] == '@') {
      return doc_->is_attribute(n) &&
             doc_->label(n) == std::string_view(step.label).substr(1);
    }
    return doc_->is_element(n) && doc_->label(n) == step.label;
  };
  // The subtree of `from` is the row interval (from, end): its descendants
  // are every row in it, in document order, and its children are found by
  // hopping from one child's subtree end to the next child.
  const NodeIndex end = doc_->SubtreeEnd(from);
  if (step.axis == Axis::kChild) {
    for (NodeIndex c = from + 1; c < end; c = doc_->SubtreeEnd(c)) {
      if (matches(c)) out->push_back(c);
    }
    return;
  }
  for (NodeIndex c = from + 1; c < end; ++c) {
    if (matches(c)) out->push_back(c);
  }
}

// --- FusedPipelinePhys -------------------------------------------------------

FusedPipelinePhys::~FusedPipelinePhys() = default;

std::string FusedPipelinePhys::label() const {
  std::string out = "FusedPipeline_phi[";
  bool first = true;
  if (src_kind_ != SourceKind::kOperator) {
    out += src_label_;
    first = false;
  }
  for (const Step& s : steps_) {
    if (!first) out += " -> ";
    out += s.member.label;
    first = false;
  }
  out += "]";
  return out;
}

std::vector<PhysicalOperator*> FusedPipelinePhys::children() const {
  if (src_op_ != nullptr) return {src_op_.get()};
  return {};
}

const OrderDescriptor& FusedPipelinePhys::source_order() const {
  return src_op_ != nullptr ? src_op_->order() : src_order_;
}

FusedPipelinePhys::StepView FusedPipelinePhys::step(size_t i) const {
  const Step& s = steps_[i];
  StepView v;
  v.kind = s.kind;
  v.label = s.member.label;
  v.in_schema = &s.in_schema;
  v.out_schema = &s.out_schema;
  v.in_order = &s.in_order;
  v.out_order = &s.out_order;
  v.pred = s.pred.get();
  if (s.kind == StepKind::kProject) v.attrs = &s.attrs;
  if (s.nav != nullptr) v.nav = s.nav->plan();
  v.derive = s.derive;
  if (s.kind == StepKind::kRename) v.prefix = &s.prefix;
  return v;
}

void FusedPipelinePhys::CorruptStepSchemaForTesting(size_t i, SchemaPtr s) {
  steps_[i].out_schema = std::move(s);
}

OrderDescriptor FusedPipelinePhys::PropagateStepOrder(
    const StepView& s, const OrderDescriptor& in) {
  // A filter keeps tuple order; a projection (first-wins dedup included)
  // keeps the longest key prefix it retains; navigation expands each input
  // tuple into consecutive outputs; parent derivation only appends a
  // column; renames and retypes translate key names.
  switch (s.kind) {
    case StepKind::kSelect:
    case StepKind::kDeriveParent:
      return in;
    case StepKind::kProject:
      return OrderPrefixOver(in, **s.out_schema);
    case StepKind::kNavigate:
      return OrderPrefixOver(in, **s.in_schema);
    case StepKind::kRename: {
      std::vector<OrderKey> kept;
      for (const OrderKey& k : in.keys()) {
        if (k.attr.find('.') != std::string::npos) break;
        kept.push_back(OrderKey{*s.prefix + k.attr, k.ascending});
      }
      return OrderDescriptor(std::move(kept));
    }
    case StepKind::kRetype: {
      std::vector<OrderKey> kept;
      for (const OrderKey& k : in.keys()) {
        int idx = (*s.in_schema)->IndexOf(k.attr);
        if (idx < 0 || (*s.out_schema)->attr(idx).is_collection) break;
        kept.push_back(OrderKey{(*s.out_schema)->attr(idx).name, k.ascending});
      }
      return OrderDescriptor(std::move(kept));
    }
  }
  return OrderDescriptor();
}

void FusedPipelinePhys::RecomputeOrders() {
  OrderDescriptor cur = source_order();
  for (size_t i = 0; i < steps_.size(); ++i) {
    steps_[i].in_order = cur;
    cur = PropagateStepOrder(step(i), cur);
    steps_[i].out_order = cur;
  }
  order_ = cur;
}

OrderDescriptor FusedPipelinePhys::ProvableOrder() const {
  OrderDescriptor cur = source_order();
  for (size_t i = 0; i < steps_.size(); ++i) {
    cur = PropagateStepOrder(step(i), cur);
  }
  return cur;
}

std::string FusedPipelinePhys::Describe(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += "\n";
  for (const PhysicalOperator* c : children()) out += c->Describe(indent + 1);
  return out;
}

std::string FusedPipelinePhys::DescribeAnalyze(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += label();
  out += "  [" + metrics().ToString() + "]\n";
  // Chain members, execution order, with their attribution slots — the
  // logical chain stays explainable after fusion.
  std::string pad(static_cast<size_t>(indent + 1) * 2, ' ');
  if (src_kind_ != SourceKind::kOperator) {
    out += pad + "~ " + src_member_.label + "  [" +
           src_member_.slot().ToString() + "]\n";
  }
  for (const Step& s : steps_) {
    out += pad + "~ " + s.member.label + "  [" + s.member.slot().ToString() +
           "]\n";
  }
  for (const PhysicalOperator* c : children()) {
    out += c->DescribeAnalyze(indent + 1);
  }
  return out;
}

void FusedPipelinePhys::BindChildren(ExecContext* ctx) {
  // Every member keeps a counter slot under its own label: the slots make
  // DescribeAnalyze attribution work, and their registration ordinals keep
  // the members addressable by the fault sweep.
  auto reg = [&](Member& m) {
    m.metrics = ctx->Register(m.label, &m.ordinal);
    m.open_calls = 0;
    m.next_calls = 0;
  };
  if (src_kind_ != SourceKind::kOperator) reg(src_member_);
  for (Step& s : steps_) reg(s.member);
  PhysicalOperator::BindChildren(ctx);
}

Status FusedPipelinePhys::CheckMemberFaults(FaultSpec::Site site) {
  const FaultSpec* f = fault_spec();
  auto probe = [&](Member& m) -> Status {
    int64_t call =
        site == FaultSpec::Site::kOpen ? m.open_calls++ : m.next_calls++;
    if (f != nullptr && f->ShouldFail(m.ordinal, m.label, site, call)) {
      const char* at = site == FaultSpec::Site::kOpen ? "Open" : "NextBatch";
      return Status::Internal(std::string("injected fault: ") + at + " of " +
                              m.label);
    }
    return Status::Ok();
  };
  if (src_kind_ != SourceKind::kOperator) {
    ULOAD_RETURN_NOT_OK(probe(src_member_));
  }
  for (Step& s : steps_) ULOAD_RETURN_NOT_OK(probe(s.member));
  return Status::Ok();
}

Status FusedPipelinePhys::OpenImpl() {
  // Member fault sites first: a member the sweep addresses fails at Open().
  ULOAD_RETURN_NOT_OK(CheckMemberFaults(FaultSpec::Site::kOpen));
  ReleaseMemory(held_bytes());
  pending_.clear();
  ticks_ = 0;
  uncharged_bytes_ = 0;
  spos_ = 0;
  cpos_ = 0;
  src_batch_.reset();
  src_batch_pos_ = 0;
  src_done_ = false;
  for (Step& s : steps_) {
    s.buf.clear();
    s.seen.clear();
    s.seen_bytes = 0;
    if (s.kind == StepKind::kNavigate) {
      ULOAD_RETURN_NOT_OK(s.nav->BindInput(*s.in_schema));
    }
  }
  switch (src_kind_) {
    case SourceKind::kColumnar:
      src_reader_->Decode(&crows_);
      return ChargeMemory(
          static_cast<int64_t>(crows_.size() * sizeof(NodeIndex)));
    case SourceKind::kOperator:
      return src_op_->Open();
    default:
      return Status::Ok();
  }
}

const Tuple* FusedPipelinePhys::PeekSourceTuple() const {
  if (spos_ >= src_end_) return nullptr;
  return &src_rel_->tuple(src_kind_ == SourceKind::kRows ? src_rows_[spos_]
                                                         : spos_);
}

Tuple FusedPipelinePhys::CopySourceRow(const Tuple& stored) const {
  if (!src_keep_.has_value()) return stored;
  Tuple t;
  t.fields.reserve(src_keep_->size());
  for (int i : *src_keep_) t.fields.push_back(stored.fields[i]);
  return t;
}

void FusedPipelinePhys::PlanPrefilter() {
  prefilter_step_ = -1;
  if (src_kind_ != SourceKind::kRelation && src_kind_ != SourceKind::kRows) {
    return;
  }
  // The stored row's schema, as the leading steps rename it.
  SchemaPtr stored = src_rel_->schema_ptr();
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    switch (s.kind) {
      case StepKind::kSelect:
        prefilter_step_ = static_cast<int>(i);
        prefilter_schema_ = std::move(stored);
        return;
      case StepKind::kRename:
        stored = PrefixedSchema(*stored, s.prefix);
        break;
      case StepKind::kRetype:
        // A retype is positional: it lines up with the stored row only
        // when the source keeps every column.
        if (src_keep_.has_value()) return;
        stored = s.out_schema;
        break;
      default:
        return;
    }
  }
}

void FusedPipelinePhys::Emit(Tuple&& t, TupleBatch* out) {
  if (!out->full()) {
    out->Add(std::move(t));
  } else {
    // One source tuple can expand past the fill target mid-chain (Navigate);
    // the overflow carries into the next NextBatch call.
    pending_.push_back(std::move(t));
  }
}

Status FusedPipelinePhys::Apply(size_t i, Tuple&& t, TupleBatch* out) {
  if (i == steps_.size()) {
    Emit(std::move(t), out);
    return Status::Ok();
  }
  Step& s = steps_[i];
  switch (s.kind) {
    case StepKind::kSelect: {
      ULOAD_ASSIGN_OR_RETURN(bool keep, s.pred->Eval(*s.in_schema, t));
      if (!keep) return Status::Ok();
      s.member.slot().tuples_produced += 1;
      return Apply(i + 1, std::move(t), out);
    }
    case StepKind::kProject: {
      Tuple p = s.projector->Apply(std::move(t));
      if (s.dedup) {
        std::string key = TupleToString(p);
        int64_t key_bytes =
            static_cast<int64_t>(sizeof(std::string) + key.capacity() + 48);
        if (!s.seen.insert(std::move(key)).second) return Status::Ok();
        s.seen_bytes += key_bytes;
        uncharged_bytes_ += key_bytes;
        OperatorMetrics& m = s.member.slot();
        if (m.peak_bytes < s.seen_bytes) m.peak_bytes = s.seen_bytes;
      }
      s.member.slot().tuples_produced += 1;
      return Apply(i + 1, std::move(p), out);
    }
    case StepKind::kNavigate: {
      s.buf.clear();
      ULOAD_RETURN_NOT_OK(s.nav->Expand(std::move(t), &s.buf));
      s.member.slot().tuples_produced += static_cast<int64_t>(s.buf.size());
      while (!s.buf.empty()) {
        Tuple o = std::move(s.buf.front());
        s.buf.pop_front();
        ULOAD_RETURN_NOT_OK(Apply(i + 1, std::move(o), out));
      }
      return Status::Ok();
    }
    case StepKind::kDeriveParent: {
      const AtomicValue& id = t.fields[s.derive_idx].atom();
      if (id.kind() == AtomicValue::Kind::kDewey) {
        t.fields.emplace_back(AtomicValue::Dewey(
            DeweyAncestorAtDepth(id.dewey(), s.derive->target_depth())));
      } else if (id.is_null()) {
        t.fields.emplace_back(AtomicValue::Null());
      } else {
        return Status::TypeError(
            "DeriveParent requires navigational (Dewey) identifiers; "
            "attribute '" +
            s.derive->left_attr() + "' holds " + id.ToString());
      }
      s.member.slot().tuples_produced += 1;
      return Apply(i + 1, std::move(t), out);
    }
    case StepKind::kRename:
    case StepKind::kRetype:
      // Metadata-only: fields are positional, the composed schema tags the
      // output batch.
      s.member.slot().tuples_produced += 1;
      return Apply(i + 1, std::move(t), out);
  }
  return Status::Internal("unhandled fused step kind");
}

Result<std::optional<TupleBatch>> FusedPipelinePhys::NextBatchImpl() {
  ULOAD_RETURN_NOT_OK(CheckMemberFaults(FaultSpec::Site::kNextBatch));
  TupleBatch out = NewBatch();
  OperatorMetrics& src_slot = src_member_.slot();
  if (steps_.empty() && src_kind_ != SourceKind::kOperator) {
    // A bare source: every row is an output row, so rows are built straight
    // into the batch (NextBatch's own check is the governor's check point).
    if (src_kind_ == SourceKind::kColumnar) {
      while (cpos_ < crows_.size() && !out.full()) {
        out.Add(src_reader_->MakeRow(crows_[cpos_++]));
      }
    } else {
      for (const Tuple* ref = PeekSourceTuple(); ref != nullptr && !out.full();
           ref = PeekSourceTuple()) {
        out.Add(CopySourceRow(*ref));
        spos_ += 1;
      }
    }
    src_slot.tuples_produced += static_cast<int64_t>(out.size());
  }
  while (!out.full()) {
    if (!pending_.empty()) {
      out.Add(std::move(pending_.front()));
      pending_.pop_front();
      continue;
    }
    // One pipeline iteration per source tuple. Relation-backed sources are
    // read in place; only tuples that enter the chain are copied.
    Tuple t;
    const Tuple* ref = nullptr;
    if (src_kind_ == SourceKind::kOperator) {
      if (!src_batch_.has_value() || src_batch_pos_ >= src_batch_->size()) {
        if (src_done_) break;
        ULOAD_ASSIGN_OR_RETURN(src_batch_, src_op_->NextBatch());
        src_batch_pos_ = 0;
        if (!src_batch_.has_value()) src_done_ = true;
        continue;
      }
      t = std::move(src_batch_->tuple(src_batch_pos_++));
    } else if (src_kind_ == SourceKind::kColumnar) {
      if (cpos_ >= crows_.size()) break;
      t = src_reader_->MakeRow(crows_[cpos_++]);
      src_slot.tuples_produced += 1;
    } else {
      ref = PeekSourceTuple();
      if (ref == nullptr) break;
      spos_ += 1;
      src_slot.tuples_produced += 1;
    }
    // Per-pipeline-iteration governor granularity: one cancellation check
    // per 1024 consumed source tuples keeps latency bounded when a selective
    // chain drains many source tuples per produced batch, without paying a
    // clock read per chain member.
    if ((++ticks_ & 1023) == 0) ULOAD_RETURN_NOT_OK(CheckControl());
    size_t first = 0;
    if (prefilter_step_ >= 0) {
      // Selection pushdown into the source read: the leading steps are
      // metadata-only, so the Select's predicate resolves against the
      // relation-resident tuple under the stored schema, renamed. Reject
      // without ever copying; survivors continue past the already-evaluated
      // Select.
      Step& sel = steps_[static_cast<size_t>(prefilter_step_)];
      ULOAD_ASSIGN_OR_RETURN(bool keep,
                             sel.pred->Eval(*prefilter_schema_, *ref));
      for (int i = 0; i < prefilter_step_; ++i) {
        steps_[static_cast<size_t>(i)].member.slot().tuples_produced += 1;
      }
      if (!keep) continue;
      sel.member.slot().tuples_produced += 1;
      first = static_cast<size_t>(prefilter_step_) + 1;
    }
    if (first == steps_.size()) {
      // Nothing left to apply; the batch has room (checked above).
      out.Add(ref != nullptr ? CopySourceRow(*ref) : std::move(t));
      continue;
    }
    if (ref != nullptr) t = CopySourceRow(*ref);
    ULOAD_RETURN_NOT_OK(Apply(first, std::move(t), &out));
  }
  // Dedup seen-sets grow monotonically; their growth is charged once per
  // output batch so the tracker sees it without per-tuple atomics.
  if (uncharged_bytes_ > 0) {
    int64_t bytes = uncharged_bytes_;
    uncharged_bytes_ = 0;
    ULOAD_RETURN_NOT_OK(ChargeMemory(bytes));
  }
  if (out.empty()) return std::optional<TupleBatch>();
  return std::optional<TupleBatch>(std::move(out));
}

void FusedPipelinePhys::CloseImpl() {
  pending_.clear();
  src_batch_.reset();
  crows_.clear();
  crows_.shrink_to_fit();
  for (Step& s : steps_) {
    s.buf.clear();
    s.seen.clear();
  }
  if (src_op_ != nullptr) src_op_->Close();
}

// --- FusedPipelineBuilder ----------------------------------------------------

FusedPipelineBuilder::FusedPipelineBuilder()
    : op_(std::unique_ptr<FusedPipelinePhys>(new FusedPipelinePhys())) {}

FusedPipelineBuilder::~FusedPipelineBuilder() = default;

void FusedPipelineBuilder::KeepRelationColumns(const NestedRelation* rel,
                                               KeptColumns keep) {
  op_->src_rel_ = rel;
  op_->src_schema_ = rel->schema_ptr();
  op_->src_keep_ = std::move(keep);
  if (!op_->src_keep_.has_value()) return;
  std::vector<Attribute> attrs;
  for (int i : *op_->src_keep_) attrs.push_back(rel->schema().attr(i));
  op_->src_schema_ = Schema::Make(std::move(attrs));
}

void FusedPipelineBuilder::InlineSource(FusedPipelinePhys::SourceKind kind,
                                        std::string label,
                                        const OrderDescriptor& order) {
  op_->src_kind_ = kind;
  op_->src_label_ = std::move(label);
  op_->src_member_.label = op_->src_label_;
  op_->src_order_ = OrderPrefixOver(order, *op_->src_schema_);
  has_source_ = true;
}

void FusedPipelineBuilder::SourceRelation(const NestedRelation* rel,
                                          std::string label, KeptColumns keep,
                                          const OrderDescriptor& order) {
  KeepRelationColumns(rel, std::move(keep));
  op_->src_end_ = rel->size();
  InlineSource(FusedPipelinePhys::SourceKind::kRelation, std::move(label),
               order);
}

void FusedPipelineBuilder::SourceRows(const NestedRelation* data,
                                      std::vector<int64_t> rows,
                                      std::string label, KeptColumns keep,
                                      const OrderDescriptor& order) {
  KeepRelationColumns(data, std::move(keep));
  op_->src_rows_ = std::move(rows);
  op_->src_end_ = static_cast<int64_t>(op_->src_rows_.size());
  InlineSource(FusedPipelinePhys::SourceKind::kRows, std::move(label), order);
}

void FusedPipelineBuilder::SourceColumnar(const MaterializedView* view,
                                          std::string label, KeptColumns keep) {
  op_->src_reader_ = std::make_unique<ColumnarRowReader>(view, keep);
  op_->src_schema_ = op_->src_reader_->schema();
  InlineSource(FusedPipelinePhys::SourceKind::kColumnar, std::move(label),
               view->order());
}

void FusedPipelineBuilder::SourceOperator(PhysicalPtr op) {
  op_->src_kind_ = FusedPipelinePhys::SourceKind::kOperator;
  op_->src_label_ = op->label();
  op_->src_schema_ = op->schema();
  op_->src_op_ = std::move(op);
  has_source_ = true;
}

const SchemaPtr& FusedPipelineBuilder::current_schema() const {
  return op_->steps_.empty() ? op_->src_schema_
                             : op_->steps_.back().out_schema;
}

Status FusedPipelineBuilder::AddSelect(PredicatePtr pred) {
  FusedPipelinePhys::Step s;
  s.kind = FusedPipelinePhys::StepKind::kSelect;
  s.in_schema = current_schema();
  s.out_schema = s.in_schema;
  s.member.label = "Select_phi[" + pred->ToString() + "]";
  s.pred = std::move(pred);
  op_->steps_.push_back(std::move(s));
  return Status::Ok();
}

Status FusedPipelineBuilder::AddProject(std::vector<std::string> attrs,
                                        bool dedup) {
  FusedPipelinePhys::Step s;
  s.kind = FusedPipelinePhys::StepKind::kProject;
  s.in_schema = current_schema();
  ULOAD_ASSIGN_OR_RETURN(s.projector,
                         TupleProjector::Make(*s.in_schema, attrs));
  s.out_schema = s.projector->schema();
  s.member.label = dedup ? "Project0_phi" : "Project_phi";
  s.attrs = std::move(attrs);
  s.dedup = dedup;
  op_->steps_.push_back(std::move(s));
  return Status::Ok();
}

Status FusedPipelineBuilder::AddNavigate(const LogicalPlan* plan,
                                         const DocumentStore* doc) {
  FusedPipelinePhys::Step s;
  s.kind = FusedPipelinePhys::StepKind::kNavigate;
  s.in_schema = current_schema();
  s.nav = std::make_unique<NavigationCore>(plan, doc);
  // Bind statically as well as at Open(): fail the build rather than
  // compile a chain that cannot run.
  ULOAD_RETURN_NOT_OK(s.nav->BindInput(*s.in_schema));
  s.out_schema = JoinOutputSchema(
      *s.in_schema, *s.nav->emit_schema(), plan->variant(),
      plan->nest_as().empty() ? plan->nav_emit().prefix : plan->nest_as());
  s.member.label = "Navigate_phi[" + plan->left_attr() + "]";
  op_->steps_.push_back(std::move(s));
  return Status::Ok();
}

Status FusedPipelineBuilder::AddDeriveParent(const LogicalPlan* plan) {
  FusedPipelinePhys::Step s;
  s.kind = FusedPipelinePhys::StepKind::kDeriveParent;
  s.in_schema = current_schema();
  ULOAD_ASSIGN_OR_RETURN(AttrPath lp,
                         ResolveAttrPath(*s.in_schema, plan->left_attr()));
  if (lp.size() != 1) {
    return Status::NotImplemented("DeriveParent_phi on nested attribute");
  }
  s.derive = plan;
  s.derive_idx = lp[0];
  s.out_schema = DeriveParentSchema(*s.in_schema, plan->nest_as());
  s.member.label = "DeriveParent_phi[" + plan->left_attr() + " -> " +
                   plan->nest_as() + " @depth " +
                   std::to_string(plan->target_depth()) + "]";
  op_->steps_.push_back(std::move(s));
  return Status::Ok();
}

Status FusedPipelineBuilder::AddRename(std::string prefix) {
  FusedPipelinePhys::Step s;
  s.kind = FusedPipelinePhys::StepKind::kRename;
  s.in_schema = current_schema();
  s.out_schema = PrefixedSchema(*s.in_schema, prefix);
  s.member.label = "Rename_phi";
  s.prefix = std::move(prefix);
  op_->steps_.push_back(std::move(s));
  return Status::Ok();
}

Status FusedPipelineBuilder::AddRetype(SchemaPtr schema) {
  FusedPipelinePhys::Step s;
  s.kind = FusedPipelinePhys::StepKind::kRetype;
  s.in_schema = current_schema();
  ULOAD_RETURN_NOT_OK(CheckSameShape(*s.in_schema, *schema));
  s.out_schema = std::move(schema);
  s.member.label = "Retype_phi";
  op_->steps_.push_back(std::move(s));
  return Status::Ok();
}

Result<PhysicalPtr> FusedPipelineBuilder::Build() {
  if (op_ == nullptr) return Status::Internal("fused pipeline already built");
  if (!has_source_) {
    return Status::Internal("fused pipeline without a source");
  }
  op_->schema_ = current_schema();
  op_->RecomputeOrders();
  op_->PlanPrefilter();
  return PhysicalPtr(std::move(op_));
}

}  // namespace uload
