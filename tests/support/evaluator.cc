#include "support/evaluator.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "eval/xam_eval.h"
#include "exec/order_descriptor.h"
#include "exec/plan_schemas.h"
#include "exec/structural_join.h"
#include "storage/store.h"

namespace uload {
namespace {

class Impl {
 public:
  explicit Impl(const EvalContext& ctx) : ctx_(ctx) {}

  Result<NestedRelation> Eval(const LogicalPlan& plan) {
    switch (plan.op()) {
      case PlanOp::kScan:
        return EvalScan(plan);
      case PlanOp::kIndexScan:
        return EvalIndexScan(plan);
      case PlanOp::kSelect:
        return EvalSelect(plan);
      case PlanOp::kProject:
        return EvalProject(plan);
      case PlanOp::kProduct:
        return EvalProduct(plan);
      case PlanOp::kValueJoin:
        return EvalValueJoin(plan);
      case PlanOp::kStructuralJoin:
        return EvalStructuralJoin(plan);
      case PlanOp::kUnion:
        return EvalUnion(plan);
      case PlanOp::kDeriveParent:
        return EvalDeriveParent(plan);
      case PlanOp::kNavigate:
        return EvalNavigate(plan);
      case PlanOp::kPrefixNames:
        return EvalPrefixNames(plan);
      case PlanOp::kRetype:
        return EvalRetype(plan);
      case PlanOp::kSortOp:
        return EvalSortOp(plan);
      case PlanOp::kUnit:
        return EvalUnit();
    }
    return Status::Internal("unhandled plan operator");
  }

 private:
  const EvalContext& ctx_;

  Result<NestedRelation> EvalScan(const LogicalPlan& plan) {
    auto it = ctx_.relations.find(plan.relation());
    if (it != ctx_.relations.end()) return *it->second.data;
    // Virtual column-backed extents store no tuples: the oracle evaluates
    // the view's definition, so virtual scans are checked against the XAM
    // semantics.
    auto vit = ctx_.views.find(plan.relation());
    if (vit != ctx_.views.end() && ctx_.document != nullptr) {
      return EvaluateXam(vit->second->definition(), *ctx_.document);
    }
    return Status::NotFound("relation '" + plan.relation() +
                            "' not bound in evaluation context");
  }

  Result<NestedRelation> EvalIndexScan(const LogicalPlan& plan) {
    if (!ctx_.index_bind) {
      return Status::InvalidArgument(
          "plan contains IndexScan but context has no index_bind hook");
    }
    ULOAD_ASSIGN_OR_RETURN(IndexBinding bind,
                           ctx_.index_bind(plan.relation(), plan.bindings()));
    NestedRelation out(bind.data->schema_ptr(), bind.data->kind());
    for (int64_t i : bind.rows) out.Add(bind.data->tuple(i));
    return out;
  }

  Result<NestedRelation> EvalSelect(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    NestedRelation out(in.schema_ptr(), in.kind());
    for (const Tuple& t : in.tuples()) {
      ULOAD_ASSIGN_OR_RETURN(bool keep,
                             plan.predicate()->Eval(in.schema(), t));
      if (keep) out.Add(t);
    }
    return out;
  }

  // --- Projection: a tree of retained attributes over nested schemas. -----

  struct ProjTree {
    // Maps attribute index -> subtree (empty subtree = keep whole attr).
    std::map<int, ProjTree> children;
    bool keep_all = false;
  };

  static Status BuildProjTree(const Schema& schema,
                              const std::vector<std::string>& attrs,
                              ProjTree* root) {
    for (const std::string& dotted : attrs) {
      ULOAD_ASSIGN_OR_RETURN(AttrPath path, ResolveAttrPath(schema, dotted));
      ProjTree* cur = root;
      for (size_t i = 0; i < path.size(); ++i) {
        cur = &cur->children[path[i]];
      }
      cur->keep_all = true;
    }
    return Status::Ok();
  }

  static SchemaPtr ProjectSchema(const Schema& schema, const ProjTree& tree) {
    std::vector<Attribute> attrs;
    for (const auto& [idx, sub] : tree.children) {
      const Attribute& a = schema.attr(idx);
      if (sub.keep_all || !a.is_collection) {
        attrs.push_back(a);
      } else {
        attrs.push_back(Attribute::Collection(
            a.name, ProjectSchema(*a.nested, sub), a.collection_kind));
      }
    }
    return Schema::Make(std::move(attrs));
  }

  static Tuple ProjectTuple(const Schema& schema, const ProjTree& tree,
                            const Tuple& t) {
    Tuple out;
    for (const auto& [idx, sub] : tree.children) {
      const Attribute& a = schema.attr(idx);
      const Field& f = t.fields[idx];
      if (sub.keep_all || !a.is_collection || !f.is_collection()) {
        out.fields.push_back(f);
      } else {
        TupleList nested;
        nested.reserve(f.collection().size());
        for (const Tuple& s : f.collection()) {
          nested.push_back(ProjectTuple(*a.nested, sub, s));
        }
        out.fields.emplace_back(std::move(nested));
      }
    }
    return out;
  }

  Result<NestedRelation> EvalProject(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    ProjTree tree;
    ULOAD_RETURN_NOT_OK(BuildProjTree(in.schema(), plan.attrs(), &tree));
    NestedRelation out(ProjectSchema(in.schema(), tree), in.kind());
    for (const Tuple& t : in.tuples()) {
      out.Add(ProjectTuple(in.schema(), tree, t));
    }
    if (plan.dedup()) out.Deduplicate();
    return out;
  }

  Result<NestedRelation> EvalProduct(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation l, Eval(*plan.left()));
    ULOAD_ASSIGN_OR_RETURN(NestedRelation r, Eval(*plan.right()));
    NestedRelation out(Schema::Concat(l.schema(), r.schema()), l.kind());
    for (const Tuple& tl : l.tuples()) {
      for (const Tuple& tr : r.tuples()) {
        out.Add(ConcatTuples(tl, tr));
      }
    }
    return out;
  }

  // Output schema for a join per variant.
  static SchemaPtr JoinSchema(const Schema& l, const Schema& r,
                              JoinVariant variant,
                              const std::string& nest_as) {
    switch (variant) {
      case JoinVariant::kInner:
      case JoinVariant::kLeftOuter:
        return Schema::Concat(l, r);
      case JoinVariant::kSemi:
        return Schema::Make(l.attrs());
      case JoinVariant::kNestJoin:
      case JoinVariant::kNestOuter: {
        std::vector<Attribute> attrs = l.attrs();
        attrs.push_back(Attribute::Collection(
            nest_as.empty() ? "s" : nest_as,
            Schema::Make(r.attrs())));
        return Schema::Make(std::move(attrs));
      }
    }
    return Schema::Make({});
  }

  // Assembles join output from per-left match lists.
  static void AssembleJoin(const NestedRelation& l, const NestedRelation& r,
                           const std::vector<std::vector<size_t>>& matches,
                           JoinVariant variant, NestedRelation* out) {
    for (size_t i = 0; i < l.tuples().size(); ++i) {
      const Tuple& tl = l.tuples()[i];
      const std::vector<size_t>& ms = matches[i];
      switch (variant) {
        case JoinVariant::kInner:
          for (size_t j : ms) out->Add(ConcatTuples(tl, r.tuples()[j]));
          break;
        case JoinVariant::kSemi:
          if (!ms.empty()) out->Add(tl);
          break;
        case JoinVariant::kLeftOuter:
          if (ms.empty()) {
            out->Add(ConcatTuples(tl, NullTuple(r.schema())));
          } else {
            for (size_t j : ms) out->Add(ConcatTuples(tl, r.tuples()[j]));
          }
          break;
        case JoinVariant::kNestJoin:
        case JoinVariant::kNestOuter: {
          if (ms.empty() && variant == JoinVariant::kNestJoin) break;
          TupleList nested;
          nested.reserve(ms.size());
          for (size_t j : ms) nested.push_back(r.tuples()[j]);
          Tuple t = tl;
          t.fields.emplace_back(std::move(nested));
          out->Add(std::move(t));
          break;
        }
      }
    }
  }

  Result<NestedRelation> EvalValueJoin(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation l, Eval(*plan.left()));
    ULOAD_ASSIGN_OR_RETURN(NestedRelation r, Eval(*plan.right()));
    ULOAD_ASSIGN_OR_RETURN(AttrPath lp,
                           ResolveAttrPath(l.schema(), plan.left_attr()));
    ULOAD_ASSIGN_OR_RETURN(AttrPath rp,
                           ResolveAttrPath(r.schema(), plan.right_attr()));

    // Every pair is decided by CompareAtoms over the atoms each side holds
    // at its (possibly nested) attribute.
    std::vector<std::vector<AtomicValue>> rvs(r.tuples().size());
    for (size_t j = 0; j < r.tuples().size(); ++j) {
      CollectAtomsAt(r.tuples()[j], r.schema(), rp, 0, &rvs[j]);
    }
    std::vector<std::vector<size_t>> matches(l.tuples().size());
    for (size_t i = 0; i < l.tuples().size(); ++i) {
      std::vector<AtomicValue> lv;
      CollectAtomsAt(l.tuples()[i], l.schema(), lp, 0, &lv);
      for (size_t j = 0; j < r.tuples().size(); ++j) {
        bool hit = false;
        for (const AtomicValue& a : lv) {
          for (const AtomicValue& b : rvs[j]) {
            if (CompareAtoms(a, plan.comparator(), b)) {
              hit = true;
              break;
            }
          }
          if (hit) break;
        }
        if (hit) matches[i].push_back(j);
      }
    }
    NestedRelation out(
        JoinSchema(l.schema(), r.schema(), plan.variant(), plan.nest_as()),
        l.kind());
    AssembleJoin(l, r, matches, plan.variant(), &out);
    return out;
  }

  Result<NestedRelation> EvalStructuralJoin(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation l, Eval(*plan.left()));
    ULOAD_ASSIGN_OR_RETURN(NestedRelation r, Eval(*plan.right()));
    ULOAD_ASSIGN_OR_RETURN(AttrPath lp,
                           ResolveAttrPath(l.schema(), plan.left_attr()));
    ULOAD_ASSIGN_OR_RETURN(AttrPath rp,
                           ResolveAttrPath(r.schema(), plan.right_attr()));
    if (rp.size() != 1) {
      return Status::NotImplemented(
          "structural join: descendant-side attribute must be top-level");
    }
    if (lp.size() == 1) {
      return TopLevelStructuralJoin(plan, l, r, lp[0], rp[0]);
    }
    // Nested ancestor attribute: map-based application (Example 1.2.3).
    return NestedStructuralJoin(plan, l, r, lp, rp[0]);
  }

  Result<NestedRelation> TopLevelStructuralJoin(const LogicalPlan& plan,
                                                const NestedRelation& l,
                                                const NestedRelation& r,
                                                int lidx, int ridx) {
    std::vector<std::vector<size_t>> matches(l.tuples().size());
    // Fast path: both sides (pre, post, depth) ids -> StackTreeAnc.
    bool all_sid = true;
    for (const Tuple& t : l.tuples()) {
      if (t.fields[lidx].atom().kind() != AtomicValue::Kind::kSid) {
        all_sid = false;
        break;
      }
    }
    if (all_sid) {
      for (const Tuple& t : r.tuples()) {
        if (t.fields[ridx].atom().kind() != AtomicValue::Kind::kSid) {
          all_sid = false;
          break;
        }
      }
    }
    if (all_sid) {
      // Sort both sides by pre (remember permutations).
      std::vector<size_t> lperm(l.tuples().size());
      std::vector<size_t> rperm(r.tuples().size());
      std::iota(lperm.begin(), lperm.end(), 0);
      std::iota(rperm.begin(), rperm.end(), 0);
      auto pre_of = [&](const NestedRelation& rel, int idx, size_t i) {
        return rel.tuples()[i].fields[idx].atom().sid().pre;
      };
      std::sort(lperm.begin(), lperm.end(), [&](size_t a, size_t b) {
        return pre_of(l, lidx, a) < pre_of(l, lidx, b);
      });
      std::sort(rperm.begin(), rperm.end(), [&](size_t a, size_t b) {
        return pre_of(r, ridx, a) < pre_of(r, ridx, b);
      });
      std::vector<StructuralId> anc(lperm.size());
      std::vector<StructuralId> desc(rperm.size());
      for (size_t i = 0; i < lperm.size(); ++i) {
        anc[i] = l.tuples()[lperm[i]].fields[lidx].atom().sid();
      }
      for (size_t j = 0; j < rperm.size(); ++j) {
        desc[j] = r.tuples()[rperm[j]].fields[ridx].atom().sid();
      }
      for (const JoinPair& p : StackTreeAnc(anc, desc, plan.axis())) {
        matches[lperm[p.ancestor]].push_back(rperm[p.descendant]);
      }
    } else {
      for (size_t i = 0; i < l.tuples().size(); ++i) {
        const AtomicValue& a = l.tuples()[i].fields[lidx].atom();
        if (a.is_null()) continue;
        for (size_t j = 0; j < r.tuples().size(); ++j) {
          const AtomicValue& d = r.tuples()[j].fields[ridx].atom();
          if (CompareAtoms(a, plan.comparator(), d)) {
            matches[i].push_back(j);
          }
        }
      }
    }
    NestedRelation out(
        JoinSchema(l.schema(), r.schema(), plan.variant(), plan.nest_as()),
        l.kind());
    AssembleJoin(l, r, matches, plan.variant(), &out);
    return out;
  }

  // Applies a structural join inside a nested collection of the left input:
  // map(op, l, r, A1...Ak, B). Rebuilds the nested tuples per the variant.
  Result<NestedRelation> NestedStructuralJoin(const LogicalPlan& plan,
                                              const NestedRelation& l,
                                              const NestedRelation& r,
                                              const AttrPath& lp,
                                              [[maybe_unused]] int ridx) {
    NestedRelation out(
        NestedJoinSchema(l.schema(), r.schema(), plan, lp, 0), l.kind());
    for (const Tuple& t : l.tuples()) {
      Tuple rebuilt;
      bool keep = true;
      ULOAD_ASSIGN_OR_RETURN(
          rebuilt, RebuildNested(l.schema(), t, r, plan, lp, 0, &keep));
      if (keep) out.Add(std::move(rebuilt));
    }
    return out;
  }

  static SchemaPtr NestedJoinSchema(const Schema& schema, const Schema& right,
                                    const LogicalPlan& plan,
                                    const AttrPath& lp, size_t depth) {
    if (depth + 1 == lp.size()) {
      // The joined level: nested tuples gain the variant's extra fields.
      return JoinSchema(schema, right, plan.variant(), plan.nest_as());
    }
    std::vector<Attribute> attrs = schema.attrs();
    const Attribute& a = schema.attr(lp[depth]);
    attrs[lp[depth]] = Attribute::Collection(
        a.name, NestedJoinSchema(*a.nested, right, plan, lp, depth + 1),
        a.collection_kind);
    return Schema::Make(std::move(attrs));
  }

  Result<Tuple> RebuildNested(const Schema& schema, const Tuple& t,
                              const NestedRelation& r, const LogicalPlan& plan,
                              const AttrPath& lp, size_t depth, bool* keep) {
    if (depth + 1 == lp.size()) {
      // `t` is a tuple at the joined level; compute its matches.
      const AtomicValue& a = t.fields[lp[depth]].atom();
      std::vector<size_t> ms;
      if (!a.is_null()) {
        for (size_t j = 0; j < r.tuples().size(); ++j) {
          ULOAD_ASSIGN_OR_RETURN(
              AttrPath rp, ResolveAttrPath(r.schema(), plan.right_attr()));
          const AtomicValue& d = r.tuples()[j].fields[rp[0]].atom();
          if (CompareAtoms(a, plan.comparator(), d)) ms.push_back(j);
        }
      }
      switch (plan.variant()) {
        case JoinVariant::kSemi:
          *keep = !ms.empty();
          return t;
        case JoinVariant::kNestJoin:
          *keep = !ms.empty();
          [[fallthrough]];
        case JoinVariant::kNestOuter: {
          TupleList nested;
          for (size_t j : ms) nested.push_back(r.tuples()[j]);
          Tuple out = t;
          out.fields.emplace_back(std::move(nested));
          return out;
        }
        case JoinVariant::kInner:
          *keep = !ms.empty();
          if (ms.empty()) return t;
          return ConcatTuples(t, r.tuples()[ms[0]]);
        case JoinVariant::kLeftOuter:
          if (ms.empty()) return ConcatTuples(t, NullTuple(r.schema()));
          return ConcatTuples(t, r.tuples()[ms[0]]);
      }
      return Status::Internal("unhandled nested join variant");
    }
    // Descend into the collection at lp[depth].
    const Attribute& attr = schema.attr(lp[depth]);
    Tuple out = t;
    Field& f = out.fields[lp[depth]];
    if (!f.is_collection()) {
      return Status::TypeError("nested join path crosses atomic field");
    }
    TupleList rebuilt;
    for (const Tuple& sub : f.collection()) {
      bool sub_keep = true;
      ULOAD_ASSIGN_OR_RETURN(
          Tuple nt,
          RebuildNested(*attr.nested, sub, r, plan, lp, depth + 1, &sub_keep));
      if (sub_keep) rebuilt.push_back(std::move(nt));
    }
    // Map semantics: a tuple whose nested collection becomes empty is
    // eliminated for the strict variants.
    if (rebuilt.empty() &&
        (plan.variant() == JoinVariant::kInner ||
         plan.variant() == JoinVariant::kSemi ||
         plan.variant() == JoinVariant::kNestJoin)) {
      *keep = false;
    }
    f.collection() = std::move(rebuilt);
    return out;
  }

  Result<NestedRelation> EvalUnion(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation l, Eval(*plan.left()));
    ULOAD_ASSIGN_OR_RETURN(NestedRelation r, Eval(*plan.right()));
    if (l.schema().size() != r.schema().size()) {
      return Status::TypeError("union of incompatible schemas: {" +
                               l.schema().ToString() + "} vs {" +
                               r.schema().ToString() + "}");
    }
    NestedRelation out = l;
    for (const Tuple& t : r.tuples()) out.Add(t);
    return out;
  }

  Result<NestedRelation> EvalDeriveParent(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    ULOAD_ASSIGN_OR_RETURN(AttrPath path,
                           ResolveAttrPath(in.schema(), plan.left_attr()));
    if (path.size() != 1) {
      return Status::NotImplemented("DeriveParent on nested attribute");
    }
    NestedRelation out(DeriveParentSchema(in.schema(), plan.nest_as()),
                       in.kind());
    for (const Tuple& t : in.tuples()) {
      const AtomicValue& id = t.fields[path[0]].atom();
      Tuple o = t;
      if (id.kind() == AtomicValue::Kind::kDewey) {
        o.fields.emplace_back(AtomicValue::Dewey(
            DeweyAncestorAtDepth(id.dewey(), plan.target_depth())));
      } else if (id.is_null()) {
        o.fields.emplace_back(AtomicValue::Null());
      } else {
        return Status::TypeError(
            "DeriveParent requires navigational (Dewey) identifiers; "
            "attribute '" +
            plan.left_attr() + "' holds " + id.ToString());
      }
      out.Add(std::move(o));
    }
    return out;
  }

  static SchemaPtr PrefixSchema(const Schema& schema,
                                const std::string& prefix) {
    std::vector<Attribute> attrs;
    for (const Attribute& a : schema.attrs()) {
      if (a.is_collection) {
        attrs.push_back(Attribute::Collection(prefix + a.name,
                                              PrefixSchema(*a.nested, prefix),
                                              a.collection_kind));
      } else {
        attrs.push_back(Attribute::Atomic(prefix + a.name));
      }
    }
    return Schema::Make(std::move(attrs));
  }

  Result<NestedRelation> EvalPrefixNames(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    NestedRelation out(PrefixSchema(in.schema(), plan.nest_as()), in.kind());
    out.mutable_tuples() = in.tuples();
    return out;
  }

  Result<NestedRelation> EvalRetype(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    ULOAD_RETURN_NOT_OK(
        CheckSameShape(in.schema(), *plan.retype_schema()));
    NestedRelation out(plan.retype_schema(), in.kind());
    out.mutable_tuples() = std::move(in.mutable_tuples());
    return out;
  }

  Result<NestedRelation> EvalSortOp(const LogicalPlan& plan) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    std::vector<OrderKey> keys;
    for (const std::string& a : plan.attrs()) keys.push_back({a, true});
    ULOAD_RETURN_NOT_OK(SortBy(OrderDescriptor(std::move(keys)), &in));
    return in;
  }

  Result<NestedRelation> EvalUnit() {
    NestedRelation out(Schema::Make({}));
    out.Add(Tuple{});
    return out;
  }

  // --- Navigate ------------------------------------------------------------

  Result<NodeIndex> ResolveId(const AtomicValue& id) const {
    const DocumentStore& doc = *ctx_.document;
    if (id.kind() == AtomicValue::Kind::kSid) {
      NodeIndex n = doc.NodeByPre(id.sid().pre);
      if (n == kNoNode) return Status::NotFound("no node with pre label");
      return n;
    }
    if (id.kind() == AtomicValue::Kind::kDewey) {
      NodeIndex cur = doc.document_node();
      for (uint32_t arc : id.dewey()) {
        std::vector<NodeIndex> kids = doc.Children(cur);
        if (arc == 0 || arc > kids.size()) {
          return Status::NotFound("dangling Dewey id");
        }
        cur = kids[arc - 1];
      }
      return cur;
    }
    return Status::TypeError("cannot navigate from non-identifier value");
  }

  static bool LabelMatches(const DocumentStore& doc, NodeIndex n,
                           const std::string& label) {
    if (label.empty()) return doc.is_element(n);
    if (label == "#text") return doc.is_text(n);
    if (label[0] == '@') {
      return doc.is_attribute(n) &&
             doc.label(n) == std::string_view(label).substr(1);
    }
    return doc.is_element(n) && doc.label(n) == label;
  }

  void CollectStep(NodeIndex from, const NavStep& step,
                   std::vector<NodeIndex>* out) const {
    const DocumentStore& doc = *ctx_.document;
    if (step.axis == Axis::kChild) {
      for (NodeIndex c : doc.Children(from)) {
        if (LabelMatches(doc, c, step.label)) out->push_back(c);
      }
      return;
    }
    // Descendant axis: DFS.
    std::vector<NodeIndex> work = doc.Children(from);
    std::reverse(work.begin(), work.end());
    while (!work.empty()) {
      NodeIndex c = work.back();
      work.pop_back();
      if (LabelMatches(doc, c, step.label)) out->push_back(c);
      std::vector<NodeIndex> kids = doc.Children(c);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        work.push_back(*it);
      }
    }
  }

  Result<NestedRelation> EvalNavigate(const LogicalPlan& plan) {
    if (ctx_.document == nullptr) {
      return Status::InvalidArgument(
          "plan contains Navigate but context has no document");
    }
    ULOAD_ASSIGN_OR_RETURN(NestedRelation in, Eval(*plan.left()));
    ULOAD_ASSIGN_OR_RETURN(AttrPath path,
                           ResolveAttrPath(in.schema(), plan.left_attr()));
    if (path.size() != 1) {
      return Status::NotImplemented("Navigate from nested attribute");
    }
    const NavEmit& emit = plan.nav_emit();
    std::vector<Attribute> emitted;
    if (emit.id) emitted.push_back(Attribute::Atomic(emit.prefix + "_ID"));
    if (emit.tag) emitted.push_back(Attribute::Atomic(emit.prefix + "_Tag"));
    if (emit.val) emitted.push_back(Attribute::Atomic(emit.prefix + "_Val"));
    if (emit.cont) {
      emitted.push_back(Attribute::Atomic(emit.prefix + "_Cont"));
    }
    SchemaPtr emit_schema = Schema::Make(emitted);

    NestedRelation out(JoinSchema(in.schema(), *emit_schema, plan.variant(),
                                  plan.nest_as().empty() ? emit.prefix
                                                         : plan.nest_as()),
                       in.kind());
    const DocumentStore& doc = *ctx_.document;
    for (const Tuple& t : in.tuples()) {
      const AtomicValue& id = t.fields[path[0]].atom();
      std::vector<NodeIndex> frontier;
      if (!id.is_null()) {
        auto resolved = ResolveId(id);
        if (resolved.ok()) frontier.push_back(*resolved);
      }
      for (const NavStep& step : plan.nav_steps()) {
        std::vector<NodeIndex> next;
        for (NodeIndex n : frontier) CollectStep(n, step, &next);
        frontier = std::move(next);
      }
      // Build emitted tuples.
      TupleList results;
      for (NodeIndex n : frontier) {
        Tuple e;
        if (emit.id) {
          if (emit.id_kind == IdKind::kParental) {
            e.fields.emplace_back(AtomicValue::Dewey(doc.Dewey(n)));
          } else {
            e.fields.emplace_back(AtomicValue::Sid(doc.sid(n)));
          }
        }
        if (emit.tag) {
          e.fields.emplace_back(AtomicValue::String(std::string(doc.label(n))));
        }
        if (emit.val) {
          e.fields.emplace_back(AtomicValue::String(doc.Value(n)));
        }
        if (emit.cont) {
          e.fields.emplace_back(AtomicValue::String(doc.Content(n)));
        }
        results.push_back(std::move(e));
      }
      switch (plan.variant()) {
        case JoinVariant::kInner:
          for (Tuple& e : results) out.Add(ConcatTuples(t, e));
          break;
        case JoinVariant::kSemi:
          if (!results.empty()) out.Add(t);
          break;
        case JoinVariant::kLeftOuter:
          if (results.empty()) {
            out.Add(ConcatTuples(t, NullTuple(*emit_schema)));
          } else {
            for (Tuple& e : results) out.Add(ConcatTuples(t, e));
          }
          break;
        case JoinVariant::kNestJoin:
          if (results.empty()) break;
          [[fallthrough]];
        case JoinVariant::kNestOuter: {
          Tuple o = t;
          o.fields.emplace_back(std::move(results));
          out.Add(std::move(o));
          break;
        }
      }
    }
    return out;
  }
};

}  // namespace

Result<NestedRelation> Evaluate(const LogicalPlan& plan,
                                const EvalContext& ctx) {
  Impl impl(ctx);
  return impl.Eval(plan);
}

Result<NestedRelation> Evaluate(
    const LogicalPlan& plan,
    const std::unordered_map<std::string, const NestedRelation*>& rels,
    const DocumentStore* doc) {
  EvalContext ctx;
  for (const auto& [name, rel] : rels) ctx.relations.emplace(name, rel);
  ctx.document = doc;
  return Evaluate(plan, ctx);
}

}  // namespace uload
