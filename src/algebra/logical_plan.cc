#include "algebra/logical_plan.h"

namespace uload {

const char* JoinVariantName(JoinVariant v) {
  switch (v) {
    case JoinVariant::kInner:
      return "join";
    case JoinVariant::kSemi:
      return "semijoin";
    case JoinVariant::kLeftOuter:
      return "outerjoin";
    case JoinVariant::kNestJoin:
      return "nest-join";
    case JoinVariant::kNestOuter:
      return "nest-outerjoin";
  }
  return "?";
}

const char* AxisName(Axis a) {
  return a == Axis::kChild ? "child" : "descendant";
}

#define ULOAD_PLAN_FACTORY_PROLOG(opname)   \
  auto p = std::make_shared<LogicalPlan>(); \
  LogicalPlan* m = p.get();                 \
  m->op_ = PlanOp::opname;

PlanPtr LogicalPlan::Scan(std::string relation) {
  ULOAD_PLAN_FACTORY_PROLOG(kScan)
  m->relation_ = std::move(relation);
  return p;
}

PlanPtr LogicalPlan::IndexScan(
    std::string relation,
    std::vector<std::pair<std::string, AtomicValue>> bindings) {
  ULOAD_PLAN_FACTORY_PROLOG(kIndexScan)
  m->relation_ = std::move(relation);
  m->bindings_ = std::move(bindings);
  return p;
}

PlanPtr LogicalPlan::Select(PlanPtr input, PredicatePtr pred) {
  ULOAD_PLAN_FACTORY_PROLOG(kSelect)
  m->left_ = std::move(input);
  m->predicate_ = std::move(pred);
  return p;
}

PlanPtr LogicalPlan::Project(PlanPtr input, std::vector<std::string> attrs,
                             bool dedup) {
  ULOAD_PLAN_FACTORY_PROLOG(kProject)
  m->left_ = std::move(input);
  m->attrs_ = std::move(attrs);
  m->dedup_ = dedup;
  return p;
}

PlanPtr LogicalPlan::Product(PlanPtr left, PlanPtr right) {
  ULOAD_PLAN_FACTORY_PROLOG(kProduct)
  m->left_ = std::move(left);
  m->right_ = std::move(right);
  return p;
}

PlanPtr LogicalPlan::ValueJoin(PlanPtr left, PlanPtr right,
                               std::string left_attr, Comparator cmp,
                               std::string right_attr, JoinVariant variant,
                               std::string nest_as) {
  ULOAD_PLAN_FACTORY_PROLOG(kValueJoin)
  m->left_ = std::move(left);
  m->right_ = std::move(right);
  m->left_attr_ = std::move(left_attr);
  m->cmp_ = cmp;
  m->right_attr_ = std::move(right_attr);
  m->variant_ = variant;
  m->nest_as_ = std::move(nest_as);
  return p;
}

PlanPtr LogicalPlan::StructuralJoin(PlanPtr left, PlanPtr right,
                                    std::string left_attr, Axis axis,
                                    std::string right_attr,
                                    JoinVariant variant, std::string nest_as) {
  ULOAD_PLAN_FACTORY_PROLOG(kStructuralJoin)
  m->left_ = std::move(left);
  m->right_ = std::move(right);
  m->left_attr_ = std::move(left_attr);
  m->axis_ = axis;
  m->cmp_ =
      axis == Axis::kChild ? Comparator::kParent : Comparator::kAncestor;
  m->right_attr_ = std::move(right_attr);
  m->variant_ = variant;
  m->nest_as_ = std::move(nest_as);
  return p;
}

PlanPtr LogicalPlan::Union(PlanPtr left, PlanPtr right) {
  ULOAD_PLAN_FACTORY_PROLOG(kUnion)
  m->left_ = std::move(left);
  m->right_ = std::move(right);
  return p;
}

PlanPtr LogicalPlan::DeriveParent(PlanPtr input, std::string id_attr,
                                  std::string out_attr,
                                  uint32_t target_depth) {
  ULOAD_PLAN_FACTORY_PROLOG(kDeriveParent)
  m->left_ = std::move(input);
  m->left_attr_ = std::move(id_attr);
  m->nest_as_ = std::move(out_attr);
  m->target_depth_ = target_depth;
  return p;
}

PlanPtr LogicalPlan::Navigate(PlanPtr input, std::string id_attr,
                              std::vector<NavStep> steps, NavEmit emit,
                              JoinVariant variant) {
  ULOAD_PLAN_FACTORY_PROLOG(kNavigate)
  m->left_ = std::move(input);
  m->left_attr_ = std::move(id_attr);
  m->nav_steps_ = std::move(steps);
  m->nav_emit_ = std::move(emit);
  m->variant_ = variant;
  return p;
}

PlanPtr LogicalPlan::PrefixNames(PlanPtr input, std::string prefix) {
  ULOAD_PLAN_FACTORY_PROLOG(kPrefixNames)
  m->left_ = std::move(input);
  m->nest_as_ = std::move(prefix);
  return p;
}

PlanPtr LogicalPlan::Retype(PlanPtr input, SchemaPtr schema) {
  ULOAD_PLAN_FACTORY_PROLOG(kRetype)
  m->left_ = std::move(input);
  m->retype_schema_ = std::move(schema);
  return p;
}

PlanPtr LogicalPlan::SortOp(PlanPtr input, std::vector<std::string> keys) {
  ULOAD_PLAN_FACTORY_PROLOG(kSortOp)
  m->left_ = std::move(input);
  m->attrs_ = std::move(keys);
  return p;
}

PlanPtr LogicalPlan::Unit() {
  ULOAD_PLAN_FACTORY_PROLOG(kUnit)
  return p;
}

#undef ULOAD_PLAN_FACTORY_PROLOG

int LogicalPlan::OperatorCount() const {
  int n = 1;
  if (left_) n += left_->OperatorCount();
  if (right_) n += right_->OperatorCount();
  return n;
}

void LogicalPlan::Render(int indent, std::string* out) const {
  out->append(indent * 2, ' ');
  switch (op_) {
    case PlanOp::kScan:
      *out += "Scan(" + relation_ + ")\n";
      return;
    case PlanOp::kIndexScan: {
      *out += "IndexScan(" + relation_;
      for (const auto& [attr, val] : bindings_) {
        *out += ", " + attr + "=" + val.ToString();
      }
      *out += ")\n";
      return;
    }
    case PlanOp::kSelect:
      *out += "Select[" + predicate_->ToString() + "]\n";
      break;
    case PlanOp::kProject: {
      *out += dedup_ ? "Project0[" : "Project[";
      for (size_t i = 0; i < attrs_.size(); ++i) {
        if (i) *out += ", ";
        *out += attrs_[i];
      }
      *out += "]\n";
      break;
    }
    case PlanOp::kProduct:
      *out += "Product\n";
      break;
    case PlanOp::kValueJoin:
      *out += std::string("ValueJoin:") + JoinVariantName(variant_) + "[" +
              left_attr_ + " " + ComparatorName(cmp_) + " " + right_attr_ +
              "]\n";
      break;
    case PlanOp::kStructuralJoin:
      *out += std::string("StructJoin:") + JoinVariantName(variant_) + ":" +
              AxisName(axis_) + "[" + left_attr_ + ", " + right_attr_ + "]\n";
      break;
    case PlanOp::kUnion:
      *out += "Union\n";
      break;
    case PlanOp::kDeriveParent:
      *out += "DeriveParent[" + left_attr_ + " -> " + nest_as_ + " @depth " +
              std::to_string(target_depth_) + "]\n";
      break;
    case PlanOp::kPrefixNames:
      *out += "PrefixNames[" + nest_as_ + "]\n";
      break;
    case PlanOp::kNavigate: {
      *out += "Navigate[" + left_attr_;
      for (const NavStep& s : nav_steps_) {
        *out += s.axis == Axis::kChild ? "/" : "//";
        *out += s.label.empty() ? "*" : s.label;
      }
      *out += " as " + nav_emit_.prefix + "]\n";
      break;
    }
    case PlanOp::kRetype:
      *out += "Retype{" + retype_schema_->ToString() + "}\n";
      break;
    case PlanOp::kSortOp: {
      *out += "Sort[";
      for (size_t i = 0; i < attrs_.size(); ++i) {
        if (i) *out += ", ";
        *out += attrs_[i];
      }
      *out += "]\n";
      break;
    }
    case PlanOp::kUnit:
      *out += "Unit\n";
      return;
  }
  if (left_) left_->Render(indent + 1, out);
  if (right_) right_->Render(indent + 1, out);
}

std::string LogicalPlan::ToString() const {
  std::string out;
  Render(0, &out);
  return out;
}

}  // namespace uload
