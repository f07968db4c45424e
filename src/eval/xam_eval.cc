#include "eval/xam_eval.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "eval/tag_collections.h"
#include "eval/tuple_intersect.h"
#include "exec/physical.h"
#include "verify/plan_verifier.h"

namespace uload {
namespace {

// A node whose stored identifiers are Dewey paths. Its base collection
// carries the Dewey id under <name>_ID and the (pre, post, depth) id it
// joins on under <name>_SID; every other node joins on its <name>_ID.
bool StoresDewey(const XamNode& n) {
  return n.stores_id && n.id_kind == IdKind::kParental;
}

// True when `v` (untyped data) satisfies `formula` as a string or, failing
// that, as its numeric reading.
bool SatisfiesFormula(const ValueFormula& formula, const AtomicValue& v) {
  if (formula.SatisfiedBy(v)) return true;
  double d;
  return v.is_string() && ParseNumber(v.as_string(), &d) &&
         formula.SatisfiedBy(AtomicValue::Number(d));
}

// The nodes whose ids make up the top level of the subtree at `id`, in
// schema order (semijoined and nested subtrees add no top-level rows). The
// extent is sorted over them lexicographically, so they define both
// EvaluateXam's sorts and the extent's declared order (ExtentOrder).
void TopLevelNodes(const Xam& xam, XamNodeId id, std::vector<XamNodeId>* out) {
  if (id != kXamRoot) out->push_back(id);
  for (const XamEdge& e : xam.node(id).edges) {
    if (!e.semi() && !e.nested()) TopLevelNodes(xam, e.child, out);
  }
}

// [[χ]]_d as one logical plan run by the streaming engine (Def. 2.2.4): a
// scan of each node's base collection, one structural join per edge with
// that edge's variant, a product under ⊤, and the projection Π_χ. Joins
// always run on (pre, post, depth) identifiers; a node's declared id kind
// shows up only in the columns Π_χ keeps.
class XamPlanner {
 public:
  XamPlanner(const Xam& xam, const DocumentStore& doc)
      : xam_(xam), doc_(doc) {}

  Result<NestedRelation> Run() {
    PlanPtr plan = JoinTree();
    ULOAD_ASSIGN_OR_RETURN(SchemaPtr schema, VerifyLogicalPlan(*plan, ctx_));
    plan = ProjectView(std::move(plan), *schema);
    ExecContext exec;  // verifies the compiled plan before it runs
    return ExecutePhysicalPlan(plan, ctx_, &exec);
  }

 private:
  std::string JoinColumn(XamNodeId id) const {
    const XamNode& n = xam_.node(id);
    return n.name + (StoresDewey(n) ? "_SID" : "_ID");
  }

  // Binds `rel`, which is in document order on `order_attr`, as the base
  // relation `name` and returns its scan.
  PlanPtr Bind(const std::string& name, NestedRelation rel,
               const std::string& order_attr) {
    bases_.push_back(std::make_unique<NestedRelation>(std::move(rel)));
    ctx_.relations[name] = {bases_.back().get(),
                            OrderDescriptor::On(order_attr)};
    return LogicalPlan::Scan(name);
  }

  // The node's tag-derived collection in document order, filtered by its
  // value formula (general interval formulas, not only v θ c atoms) and,
  // for a `/` child of ⊤, restricted to the document's root element.
  PlanPtr Base(XamNodeId id, bool root_only) {
    const XamNode& n = xam_.node(id);
    const bool filter = !n.val_formula.IsTrue();
    TagCollectionOptions opts{n.name, n.stores_tag, n.stores_val || filter,
                              n.stores_cont};
    NestedRelation base =
        n.is_attribute
            ? AttributeCollection(
                  doc_, n.tag_value.empty() ? "" : n.tag_value.substr(1), opts)
            : TagCollection(doc_, n.tag_value, opts);
    const bool dewey = StoresDewey(n);
    if (!filter && !root_only && !dewey) {
      return Bind(n.name, std::move(base), JoinColumn(id));
    }
    // A Val fetched only for the formula is not part of the collection.
    const int val = base.schema().IndexOf(n.name + "_Val");
    const int drop = n.stores_val ? -1 : val;
    std::vector<Attribute> attrs = base.schema().attrs();
    if (drop >= 0) attrs.erase(attrs.begin() + drop);
    if (dewey) {
      attrs[0] = Attribute::Atomic(JoinColumn(id));
      attrs.insert(attrs.begin(), Attribute::Atomic(n.name + "_ID"));
    }
    NestedRelation out(Schema::Make(std::move(attrs)));
    const uint32_t root_pre = doc_.sid(doc_.root()).pre;
    for (Tuple& t : base.mutable_tuples()) {
      const uint32_t pre = t.fields[0].atom().sid().pre;
      if (root_only && pre != root_pre) continue;
      if (filter && !SatisfiesFormula(n.val_formula, t.fields[val].atom())) {
        continue;
      }
      if (drop >= 0) t.fields.erase(t.fields.begin() + drop);
      if (dewey) {
        t.fields.emplace(t.fields.begin(),
                         AtomicValue::Dewey(doc_.Dewey(doc_.NodeByPre(pre))));
      }
      out.Add(std::move(t));
    }
    return Bind(n.name, std::move(out), JoinColumn(id));
  }

  // The subtree rooted at `id` (not ⊤): its base joined with each child
  // subtree, left to right.
  PlanPtr Subtree(XamNodeId id, bool root_only) {
    const XamNode& n = xam_.node(id);
    PlanPtr cur = Base(id, root_only);
    for (const XamEdge& e : n.edges) {
      PlanPtr child = Subtree(e.child, /*root_only=*/false);
      // A nested collection keeps its tuples in the order of the subtree.
      if (e.nested()) child = Ordered(std::move(child), e.child);
      cur = LogicalPlan::StructuralJoin(
          std::move(cur), std::move(child), JoinColumn(id), e.axis,
          JoinColumn(e.child), e.variant, xam_.node(e.child).name);
    }
    return cur;
  }

  // Document order, lexicographically over the top-level nodes: the order
  // of a nested-loop join tree over document-ordered base collections. The
  // compiler drops the sort where the stream's order already covers it.
  PlanPtr Ordered(PlanPtr plan, XamNodeId id) const {
    std::vector<XamNodeId> nodes;
    TopLevelNodes(xam_, id, &nodes);
    std::vector<std::string> keys;
    for (XamNodeId n : nodes) keys.push_back(JoinColumn(n));
    return LogicalPlan::SortOp(std::move(plan), std::move(keys));
  }

  PlanPtr JoinTree() {
    const XamNode& top = xam_.node(kXamRoot);
    // ⊤ is the document node: existential (semijoined) and grouped
    // (nested) children hang off its single tuple; the other children
    // combine by product — they all are descendants of the document node.
    const std::string top_id = top.name + "_ID";
    Tuple doc_node;
    doc_node.fields.emplace_back(
        AtomicValue::Sid(doc_.sid(doc_.document_node())));
    NestedRelation top_rel(Schema::Make({Attribute::Atomic(top_id)}));
    top_rel.Add(std::move(doc_node));
    const PlanPtr top_scan = Bind(top.name, std::move(top_rel), top_id);
    PlanPtr cur;
    for (const XamEdge& e : top.edges) {
      PlanPtr sub = Subtree(e.child, /*root_only=*/e.axis == Axis::kChild);
      if (e.semi() || e.nested()) {
        if (e.nested()) sub = Ordered(std::move(sub), e.child);
        sub = LogicalPlan::StructuralJoin(
            top_scan, std::move(sub), top_id, Axis::kDescendant,
            JoinColumn(e.child), e.variant, xam_.node(e.child).name);
      }
      cur = cur == nullptr ? std::move(sub)
                           : LogicalPlan::Product(std::move(cur),
                                                  std::move(sub));
    }
    return Ordered(std::move(cur), kXamRoot);
  }

  // Π_χ over the join tree `plan` of output schema `schema`: exactly the
  // specified attributes. Pattern semantics are sets of tuples (Def.
  // 2.2.3(2)(iii)); top-level rows are distinct on the ids of the top-level
  // nodes, so only dropping one of those ids can create duplicates.
  // First-wins elimination keeps document order.
  PlanPtr ProjectView(PlanPtr plan, const Schema& schema) const {
    std::vector<std::string> paths;
    for (const Xam::StoredAttr& a : xam_.StoredAttrs()) {
      paths.push_back(xam_.AttrPath(a.node, a.suffix));
    }
    std::vector<XamNodeId> top_level;
    TopLevelNodes(xam_, kXamRoot, &top_level);
    bool dedup = false;
    for (XamNodeId n : top_level) dedup |= !xam_.node(n).stores_id;
    bool identity = !dedup && schema.size() == static_cast<int>(paths.size());
    for (int i = 0; identity && i < schema.size(); ++i) {
      identity = !schema.attr(i).is_collection &&
                 schema.attr(i).name == paths[static_cast<size_t>(i)];
    }
    if (identity) return plan;
    return LogicalPlan::Project(std::move(plan), std::move(paths), dedup);
  }

  const Xam& xam_;
  const DocumentStore& doc_;
  std::vector<std::unique_ptr<NestedRelation>> bases_;
  EvalContext ctx_;
};

// Removes duplicate tuples inside nested collections (the top level is
// handled by Π_χ); stable, so document order is preserved.
void DedupNestedCollections(const Schema& schema, TupleList* tuples) {
  for (int i = 0; i < schema.size(); ++i) {
    if (!schema.attr(i).is_collection) continue;
    for (Tuple& t : *tuples) {
      Field& f = t.fields[i];
      if (!f.is_collection()) continue;
      DedupNestedCollections(*schema.attr(i).nested, &f.collection());
      NestedRelation tmp(schema.attr(i).nested);
      tmp.mutable_tuples() = std::move(f.collection());
      tmp.Deduplicate();
      f.collection() = std::move(tmp.mutable_tuples());
    }
  }
}

}  // namespace

Result<NestedRelation> EvaluateXam(const Xam& xam, const DocumentStore& doc) {
  if (xam.node(kXamRoot).edges.empty()) {
    // ⊤ alone: no pattern nodes, nothing stored.
    return NestedRelation(Schema::Make({}));
  }
  XamPlanner planner(xam, doc);
  ULOAD_ASSIGN_OR_RETURN(NestedRelation out, planner.Run());
  DedupNestedCollections(out.schema(), &out.mutable_tuples());
  // Extents live as long as their catalog: drop the collector's growth
  // slack.
  out.mutable_tuples().shrink_to_fit();
  return out;
}

OrderDescriptor ExtentOrder(const Xam& xam) {
  std::vector<XamNodeId> nodes;
  TopLevelNodes(xam, kXamRoot, &nodes);
  // The leading chain: top-level nodes joined by inner `/` edges from ⊤,
  // each the next one's parent. Chain nodes sit at fixed depths, so each is
  // a monotone function of the next in document order: the sort over the
  // chain is the document order of its deepest node that stores an ID, and
  // the chain nodes that store one are sorted lexicographically with it.
  size_t chain = 0;
  for (XamNodeId parent = kXamRoot; chain < nodes.size(); ++chain) {
    const std::vector<XamEdge>& edges = xam.node(parent).edges;
    auto edge = std::find_if(edges.begin(), edges.end(), [&](const XamEdge& e) {
      return e.child == nodes[chain];
    });
    if (edge == edges.end() || edge->axis != Axis::kChild ||
        edge->variant != JoinVariant::kInner) {
      break;
    }
    parent = nodes[chain];
  }
  // An ID-less node ends the order, unless a deeper chain node follows it.
  std::vector<OrderKey> keys;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (xam.node(nodes[i]).stores_id) {
      keys.push_back(OrderKey{xam.AttrPath(nodes[i], "_ID"), true});
    } else if (i + 1 >= chain) {
      break;
    }
  }
  return OrderDescriptor(std::move(keys));
}

namespace {

void CollectBindingSchema(const Xam& xam, XamNodeId id,
                          std::vector<Attribute>* attrs) {
  const XamNode& n = xam.node(id);
  if (id != kXamRoot) {
    if (n.id_required) attrs->push_back(Attribute::Atomic(n.name + "_ID"));
    if (n.tag_required) attrs->push_back(Attribute::Atomic(n.name + "_Tag"));
    if (n.val_required) attrs->push_back(Attribute::Atomic(n.name + "_Val"));
  }
  for (const XamEdge& e : n.edges) {
    if (e.nested()) {
      std::vector<Attribute> sub;
      CollectBindingSchema(xam, e.child, &sub);
      if (!sub.empty()) {
        attrs->push_back(Attribute::Collection(xam.node(e.child).name,
                                               Schema::Make(sub)));
      }
    } else {
      CollectBindingSchema(xam, e.child, attrs);
    }
  }
}

}  // namespace

SchemaPtr BindingSchema(const Xam& xam) {
  std::vector<Attribute> attrs;
  CollectBindingSchema(xam, kXamRoot, &attrs);
  return Schema::Make(std::move(attrs));
}

Result<NestedRelation> EvaluateXamWithBindings(
    const Xam& xam, const DocumentStore& doc, const NestedRelation& bindings) {
  ULOAD_ASSIGN_OR_RETURN(NestedRelation full, EvaluateXam(xam, doc));
  NestedRelation out(full.schema_ptr(), full.kind());
  for (const Tuple& b : bindings.tuples()) {
    for (const Tuple& t : full.tuples()) {
      ULOAD_ASSIGN_OR_RETURN(
          std::optional<Tuple> m,
          TupleIntersect(full.schema(), t, bindings.schema(), b));
      if (m.has_value()) out.Add(std::move(*m));
    }
  }
  return out;
}

}  // namespace uload
