#include "verify/plan_verifier.h"

#include <utility>

#include "exec/fusion.h"
#include "exec/order_descriptor.h"
#include "exec/plan_schemas.h"
#include "storage/store.h"

namespace uload {

namespace {

// --- Logical schema inference ------------------------------------------------

const char* OpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan: return "Scan";
    case PlanOp::kIndexScan: return "IndexScan";
    case PlanOp::kSelect: return "Select";
    case PlanOp::kProject: return "Project";
    case PlanOp::kProduct: return "Product";
    case PlanOp::kValueJoin: return "ValueJoin";
    case PlanOp::kStructuralJoin: return "StructuralJoin";
    case PlanOp::kUnion: return "Union";
    case PlanOp::kDeriveParent: return "DeriveParent";
    case PlanOp::kNavigate: return "Navigate";
    case PlanOp::kPrefixNames: return "PrefixNames";
    case PlanOp::kRetype: return "Retype";
    case PlanOp::kSortOp: return "Sort";
    case PlanOp::kUnit: return "Unit";
  }
  return "?";
}

// One diagnostic shape for every unresolved-column report: the operator path
// from the plan root, the offending column, and the candidate columns of the
// schema it was resolved against.
Status Unresolved(const std::string& path, const char* what,
                  const std::string& attr, const Schema& schema) {
  return Status::TypeError("plan verification: at " + path + ": " + what +
                           " '" + attr + "' does not resolve; candidates: {" +
                           schema.ToString() + "}");
}

// Checks one dotted column reference. With `require_atomic`, the path's final
// attribute must be atomic (contexts that read the field with .atom()).
Status CheckColumn(const Schema& schema, const std::string& attr,
                   const std::string& path, const char* what,
                   bool require_atomic) {
  Result<AttrPath> r = ResolveAttrPath(schema, attr);
  if (!r.ok()) return Unresolved(path, what, attr, schema);
  if (require_atomic && AttrAt(schema, *r).is_collection) {
    return Status::TypeError("plan verification: at " + path + ": " + what +
                             " '" + attr +
                             "' names a collection attribute; an atomic "
                             "value is required");
  }
  return Status::Ok();
}

// Every column a predicate touches must resolve. Collection-valued leaves
// are legal (existential semantics yield zero atoms), so only resolution is
// checked.
Status CheckPredicate(const Predicate& p, const Schema& schema,
                      const std::string& path) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return Status::Ok();
    case Predicate::Kind::kCompareConst:
    case Predicate::Kind::kIsNull:
    case Predicate::Kind::kNotNull:
      return CheckColumn(schema, p.lhs(), path, "predicate column", false);
    case Predicate::Kind::kCompareAttrs:
      ULOAD_RETURN_NOT_OK(
          CheckColumn(schema, p.lhs(), path, "predicate column", false));
      return CheckColumn(schema, p.rhs_attr(), path, "predicate column",
                         false);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      ULOAD_RETURN_NOT_OK(CheckPredicate(*p.left(), schema, path));
      return CheckPredicate(*p.right(), schema, path);
    case Predicate::Kind::kNot:
      return CheckPredicate(*p.left(), schema, path);
  }
  return Status::Internal("unhandled predicate kind");
}

// Template walker: `scope` is the schema value references resolve against
// (switched by iterate nodes), `root` the top-level tuple schema absolute
// references escape to.
Status CheckTemplateNode(const TemplateNode& node, const Schema& scope,
                         const Schema& root, const std::string& path) {
  switch (node.kind) {
    case TemplateNode::Kind::kText:
      return Status::Ok();
    case TemplateNode::Kind::kValueRef: {
      const Schema& s = node.absolute ? root : scope;
      Result<AttrPath> r = ResolveAttrPath(s, node.attr);
      if (!r.ok()) {
        return Unresolved(path,
                          node.absolute ? "absolute template value reference"
                                        : "template value reference",
                          node.attr, s);
      }
      return Status::Ok();
    }
    case TemplateNode::Kind::kElement:
    case TemplateNode::Kind::kGroup:
      break;
  }
  std::string here =
      path + "/<" +
      (node.kind == TemplateNode::Kind::kGroup ? "group" : node.tag) + ">";
  const Schema* child_scope = &scope;
  if (!node.iterate.empty()) {
    Result<AttrPath> r = ResolveAttrPath(scope, node.iterate);
    if (!r.ok()) {
      return Unresolved(here, "template iteration binding", node.iterate,
                        scope);
    }
    const Attribute& attr = AttrAt(scope, *r);
    if (!attr.is_collection) {
      return Status::TypeError(
          "plan verification: at " + here + ": template iterates over atomic "
          "attribute '" + node.iterate + "'");
    }
    if (r->size() == 1) child_scope = attr.nested.get();
    // Nested iteration paths are rejected at instantiation time
    // (NotImplemented); the scope switch only happens for the supported
    // top-level form, so deeper checks stay against the right schema.
  }
  for (const TemplateNode& c : node.children) {
    ULOAD_RETURN_NOT_OK(CheckTemplateNode(c, *child_scope, root, here));
  }
  return Status::Ok();
}

class LogicalVerifier {
 public:
  explicit LogicalVerifier(const EvalContext& ctx) : ctx_(ctx) {}

  Result<SchemaPtr> Infer(const LogicalPlan& p, const std::string& parent) {
    std::string path =
        parent.empty() ? OpName(p.op()) : parent + "/" + OpName(p.op());
    switch (p.op()) {
      case PlanOp::kScan: {
        auto it = ctx_.relations.find(p.relation());
        if (it != ctx_.relations.end()) return it->second.data->schema_ptr();
        // Virtual column-backed extents have no bound relation; their
        // schema comes from the view definition (storage/store.h).
        auto vit = ctx_.views.find(p.relation());
        if (vit != ctx_.views.end()) return vit->second->schema();
        return Status::NotFound("plan verification: at " + path +
                                ": relation '" + p.relation() +
                                "' not bound in evaluation context");
      }
      case PlanOp::kIndexScan:
        return InferIndexScan(p, path);
      case PlanOp::kSelect: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        ULOAD_RETURN_NOT_OK(CheckPredicate(*p.predicate(), *in, path));
        return in;
      }
      case PlanOp::kProject: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        for (const std::string& a : p.attrs()) {
          if (!ResolveAttrPath(*in, a).ok()) {
            return Unresolved(path, "projected column", a, *in);
          }
        }
        return ProjectionSchema(*in, p.attrs());
      }
      case PlanOp::kProduct: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr l, Infer(*p.left(), path));
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr r, Infer(*p.right(), path));
        return Schema::Concat(*l, *r);
      }
      case PlanOp::kValueJoin:
      case PlanOp::kStructuralJoin:
        return InferJoin(p, path);
      case PlanOp::kUnion: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr l, Infer(*p.left(), path));
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr r, Infer(*p.right(), path));
        if (l->size() != r->size()) {
          return Status::TypeError(
              "plan verification: at " + path + ": union of incompatible "
              "schemas: {" + l->ToString() + "} vs {" + r->ToString() + "}");
        }
        return l;
      }
      case PlanOp::kDeriveParent: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        ULOAD_RETURN_NOT_OK(CheckColumn(*in, p.left_attr(), path,
                                        "DeriveParent source column", true));
        return DeriveParentSchema(*in, p.nest_as());
      }
      case PlanOp::kNavigate: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        ULOAD_RETURN_NOT_OK(CheckColumn(*in, p.left_attr(), path,
                                        "navigation source column", true));
        SchemaPtr emit = NavigateEmitSchema(p.nav_emit());
        return JoinOutputSchema(*in, *emit, p.variant(),
                                p.nest_as().empty() ? p.nav_emit().prefix
                                                    : p.nest_as());
      }
      case PlanOp::kPrefixNames: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        return PrefixedSchema(*in, p.nest_as());
      }
      case PlanOp::kRetype: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        Status shape = CheckSameShape(*in, *p.retype_schema());
        if (!shape.ok()) {
          return Status::TypeError("plan verification: at " + path + ": " +
                                   shape.message());
        }
        return p.retype_schema();
      }
      case PlanOp::kSortOp: {
        ULOAD_ASSIGN_OR_RETURN(SchemaPtr in, Infer(*p.left(), path));
        for (const std::string& a : p.attrs()) {
          ULOAD_RETURN_NOT_OK(CheckColumn(*in, a, path, "sort key", true));
        }
        return in;
      }
      case PlanOp::kUnit:
        return Schema::Make({});
    }
    return Status::Internal("unhandled plan operator");
  }

  static Status CheckTemplate(const XmlTemplate& templ, const Schema& root,
                              const std::string& path) {
    for (const TemplateNode& n : templ.roots) {
      ULOAD_RETURN_NOT_OK(CheckTemplateNode(n, root, root, path));
    }
    return Status::Ok();
  }

 private:
  // The schema of an index scan is its view's schema, read from the
  // catalog binding: verification never runs the index lookup itself.
  Result<SchemaPtr> InferIndexScan(const LogicalPlan& p,
                                   const std::string& path) {
    auto vit = ctx_.views.find(p.relation());
    if (vit == ctx_.views.end()) {
      return Status::NotFound("plan verification: at " + path +
                              ": index view '" + p.relation() +
                              "' not bound in evaluation context");
    }
    const SchemaPtr& schema = vit->second->schema();
    for (const auto& [name, value] : p.bindings()) {
      (void)value;
      ULOAD_RETURN_NOT_OK(
          CheckColumn(*schema, name, path, "index binding column", true));
    }
    return schema;
  }

  Result<SchemaPtr> InferJoin(const LogicalPlan& p, const std::string& path) {
    ULOAD_ASSIGN_OR_RETURN(SchemaPtr l, Infer(*p.left(), path));
    ULOAD_ASSIGN_OR_RETURN(SchemaPtr r, Infer(*p.right(), path));
    // Top-level join attributes are read with .atom() on the hash/StackTree
    // fast paths, so they must be atomic; nested paths go through the
    // existential atom collector and only need to resolve.
    Result<AttrPath> lp = ResolveAttrPath(*l, p.left_attr());
    if (!lp.ok()) return Unresolved(path, "left join column", p.left_attr(), *l);
    Result<AttrPath> rp = ResolveAttrPath(*r, p.right_attr());
    if (!rp.ok()) {
      return Unresolved(path, "right join column", p.right_attr(), *r);
    }
    ULOAD_RETURN_NOT_OK(CheckColumn(*l, p.left_attr(), path,
                                    "left join column", lp->size() == 1));
    ULOAD_RETURN_NOT_OK(CheckColumn(*r, p.right_attr(), path,
                                    "right join column", rp->size() == 1));
    if (p.op() == PlanOp::kStructuralJoin && lp->size() > 1) {
      // No executor implements it (CompilePhysicalPlan rejects it too).
      return Status::NotImplemented("plan verification: at " + path +
                                    ": structural join on nested attribute '" +
                                    p.left_attr() + "'");
    }
    return JoinOutputSchema(*l, *r, p.variant(), p.nest_as());
  }

  const EvalContext& ctx_;
};

// --- Physical plan walk ------------------------------------------------------

std::string PhysPath(const std::string& parent, const PhysicalOperator& op) {
  return parent.empty() ? op.label() : parent + "/" + op.label();
}

Status PhysError(const std::string& path, const std::string& msg) {
  return Status::InvalidArgument("physical plan verification: at " + path +
                                 ": " + msg);
}

// Fused-pipeline soundness (exec/fusion.h): fusion must be a no-op on
// schemas and order descriptors. Each chain member's boundary is recorded on
// the fused operator as a step with its input/output schema and order; this
// re-derives every step's output schema from its input schema with the
// shared derivations of the logical operators, re-propagates the order
// descriptors forward from the source, and checks both against what the
// fused operator recorded and finally advertises. A mis-fused plan — steps
// composed in the wrong order, a boundary schema that drifted, an order the
// chain cannot actually prove — fails here before it ever runs. A zero-step
// pipeline (a bare source) must advertise its source's schema.
Status VerifyFusedSteps(const FusedPipelinePhys& f, const std::string& path) {
  SchemaPtr cur = f.source_schema();
  OrderDescriptor cur_order = f.source_order();
  for (size_t i = 0; i < f.step_count(); ++i) {
    FusedPipelinePhys::StepView s = f.step(i);
    std::string here = path + "/~" + s.label;
    // The recorded input boundary must be exactly where the previous step
    // left off.
    Status shape = CheckSameShape(*cur, **s.in_schema);
    if (!shape.ok() || cur->ToString() != (*s.in_schema)->ToString()) {
      return PhysError(here, "fused step input schema {" +
                               (*s.in_schema)->ToString() +
                               "} does not match the chain's schema at this "
                               "point {" + cur->ToString() + "}");
    }
    if (!OrderCovers(cur_order, *s.in_order)) {
      return PhysError(here, "fused step records input order " +
                               s.in_order->ToString() +
                               " but the chain only proves " +
                               cur_order.ToString() + " at this point");
    }
    // Re-derive the step's output schema independently.
    SchemaPtr expected;
    switch (s.kind) {
      case FusedPipelinePhys::StepKind::kSelect:
        ULOAD_RETURN_NOT_OK(CheckPredicate(*s.pred, *cur, here));
        expected = cur;
        break;
      case FusedPipelinePhys::StepKind::kProject: {
        for (const std::string& a : *s.attrs) {
          if (!ResolveAttrPath(*cur, a).ok()) {
            return Unresolved(here, "projected column", a, *cur);
          }
        }
        ULOAD_ASSIGN_OR_RETURN(expected, ProjectionSchema(*cur, *s.attrs));
        break;
      }
      case FusedPipelinePhys::StepKind::kNavigate: {
        const LogicalPlan& n = *s.nav;
        ULOAD_RETURN_NOT_OK(CheckColumn(*cur, n.left_attr(), here,
                                        "navigation source column", true));
        SchemaPtr emit = NavigateEmitSchema(n.nav_emit());
        expected = JoinOutputSchema(*cur, *emit, n.variant(),
                                    n.nest_as().empty() ? n.nav_emit().prefix
                                                        : n.nest_as());
        break;
      }
      case FusedPipelinePhys::StepKind::kDeriveParent:
        ULOAD_RETURN_NOT_OK(CheckColumn(*cur, s.derive->left_attr(), here,
                                        "DeriveParent source column", true));
        expected = DeriveParentSchema(*cur, s.derive->nest_as());
        break;
      case FusedPipelinePhys::StepKind::kRename:
        expected = PrefixedSchema(*cur, *s.prefix);
        break;
      case FusedPipelinePhys::StepKind::kRetype: {
        Status same = CheckSameShape(*cur, **s.out_schema);
        if (!same.ok()) {
          return PhysError(here, "fused retype is not shape-preserving: " +
                                   same.message());
        }
        expected = *s.out_schema;
        break;
      }
    }
    if (expected->ToString() != (*s.out_schema)->ToString()) {
      return PhysError(here, "fused step records output schema {" +
                               (*s.out_schema)->ToString() +
                               "} but re-derivation yields {" +
                               expected->ToString() + "}");
    }
    // Re-propagate the order across this step and check the recorded
    // boundary descriptor against it.
    OrderDescriptor derived = FusedPipelinePhys::PropagateStepOrder(s, cur_order);
    if (!OrderCovers(derived, *s.out_order)) {
      return PhysError(here, "fused step records output order " +
                               s.out_order->ToString() +
                               " but propagation only proves " +
                               derived.ToString());
    }
    cur = expected;
    cur_order = *s.out_order;
  }
  if (f.schema()->ToString() != cur->ToString()) {
    return PhysError(path, "fused pipeline advertises schema {" +
                             f.schema()->ToString() +
                             "} but its chain composes to {" +
                             cur->ToString() + "}");
  }
  return Status::Ok();
}

// Walks `op` and its children.
Status WalkPhysical(const PhysicalOperator& op, const std::string& parent) {
  std::string path = PhysPath(parent, op);
  PhysOpKind kind = op.kind();

  // (3) Fused pipelines: prove fusion was a no-op on schemas and orders by
  // re-deriving every chain member's boundary.
  if (kind == PhysOpKind::kFusedPipeline) {
    ULOAD_RETURN_NOT_OK(
        VerifyFusedSteps(static_cast<const FusedPipelinePhys&>(op), path));
  }

  // (2) Order-descriptor soundness: the advertised order must be covered by
  // the order the operator can actually prove from its children.
  if (!OrderCovers(op.ProvableOrder(), op.order())) {
    return PhysError(
        path, "advertises order " + op.order().ToString() +
                  " but can only prove " + op.ProvableOrder().ToString() +
                  " from its input's order");
  }

  std::vector<PhysicalOperator*> children = op.children();
  for (size_t i = 0; i < children.size(); ++i) {
    const PhysicalOperator& c = *children[i];
    ULOAD_RETURN_NOT_OK(WalkPhysical(c, path));

    // Order-requirement coverage: the input must prove the order this
    // operator's algorithm assumes.
    OrderDescriptor required = op.RequiredChildOrder(i);
    if (!OrderCovers(c.order(), required)) {
      return PhysError(
          path, "requires input " + std::to_string(i) + " (" + c.label() +
                    ") ordered " + required.ToString() +
                    " but its advertised order is " + c.order().ToString());
    }
  }

  // (4) Union re-tags right-side batches with the left schema, which is only
  // sound when the shapes agree.
  if (kind == PhysOpKind::kUnion && children.size() == 2) {
    Status s = CheckSameShape(*children[0]->schema(), *children[1]->schema());
    if (!s.ok()) {
      return PhysError(path,
                       "union inputs are not shape-compatible: " + s.message());
    }
  }

  return Status::Ok();
}

}  // namespace

Result<SchemaPtr> VerifyLogicalPlan(const LogicalPlan& plan,
                                    const EvalContext& ctx) {
  LogicalVerifier v(ctx);
  return v.Infer(plan, "");
}

Status VerifyTemplate(const XmlTemplate& templ, const Schema& root_schema) {
  return LogicalVerifier::CheckTemplate(templ, root_schema, "template");
}

Status VerifyPhysicalPlan(const PhysicalOperator& root,
                          const PhysicalVerifyOptions& opts) {
  ULOAD_RETURN_NOT_OK(WalkPhysical(root, ""));
  // Sort_φ elision obligations: every elided enforcer's order must still be
  // covered by the operator that stood in for it.
  for (const auto& [op, required] : opts.order_obligations) {
    if (!OrderCovers(op->order(), required)) {
      return PhysError(op->label(),
                       "Sort_phi" + required.ToString() +
                           " was elided here, but the operator's final "
                           "advertised order " + op->order().ToString() +
                           " no longer covers it");
    }
  }
  return Status::Ok();
}

}  // namespace uload
