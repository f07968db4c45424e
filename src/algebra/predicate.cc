#include "algebra/predicate.h"

#include "common/string_util.h"

namespace uload {

const char* ComparatorName(Comparator cmp) {
  switch (cmp) {
    case Comparator::kEq:
      return "=";
    case Comparator::kNe:
      return "!=";
    case Comparator::kLt:
      return "<";
    case Comparator::kLe:
      return "<=";
    case Comparator::kGt:
      return ">";
    case Comparator::kGe:
      return ">=";
    case Comparator::kParent:
      return "≺";
    case Comparator::kAncestor:
      return "≺≺";
    case Comparator::kContainsWord:
      return "contains";
  }
  return "?";
}

bool CompareAtoms(const AtomicValue& a, Comparator cmp, const AtomicValue& b) {
  if (a.is_null() || b.is_null()) return false;
  switch (cmp) {
    case Comparator::kEq:
      return a == b;
    case Comparator::kNe:
      return !(a == b);
    case Comparator::kLt:
      return AtomicValue::Compare(a, b) < 0;
    case Comparator::kLe:
      return AtomicValue::Compare(a, b) <= 0;
    case Comparator::kGt:
      return AtomicValue::Compare(a, b) > 0;
    case Comparator::kGe:
      return AtomicValue::Compare(a, b) >= 0;
    case Comparator::kParent:
      return AtomicValue::IsParentOf(a, b);
    case Comparator::kAncestor:
      return AtomicValue::IsAncestorOf(a, b);
    case Comparator::kContainsWord:
      return a.is_string() && b.is_string() &&
             ContainsWord(a.as_string(), b.as_string());
  }
  return false;
}

PredicatePtr Predicate::True() {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kTrue;
  return p;
}

PredicatePtr Predicate::CompareConst(std::string attr, Comparator cmp,
                                     AtomicValue constant) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kCompareConst;
  p->lhs_ = std::move(attr);
  p->cmp_ = cmp;
  p->constant_ = std::move(constant);
  return p;
}

PredicatePtr Predicate::CompareAttrs(std::string lhs, Comparator cmp,
                                     std::string rhs) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kCompareAttrs;
  p->lhs_ = std::move(lhs);
  p->cmp_ = cmp;
  p->rhs_attr_ = std::move(rhs);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr a, PredicatePtr b) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kAnd;
  p->a_ = std::move(a);
  p->b_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr a, PredicatePtr b) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kOr;
  p->a_ = std::move(a);
  p->b_ = std::move(b);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr a) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kNot;
  p->a_ = std::move(a);
  return p;
}

PredicatePtr Predicate::IsNull(std::string attr) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kIsNull;
  p->lhs_ = std::move(attr);
  return p;
}

PredicatePtr Predicate::NotNull(std::string attr) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kNotNull;
  p->lhs_ = std::move(attr);
  return p;
}

Result<bool> Predicate::Eval(const Schema& schema, const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompareConst: {
      ULOAD_ASSIGN_OR_RETURN(AttrPath path, ResolveAttrPath(schema, lhs_));
      std::vector<AtomicValue> atoms;
      CollectAtomsAt(tuple, schema, path, 0, &atoms);
      for (const AtomicValue& v : atoms) {
        if (CompareAtoms(v, cmp_, constant_)) return true;
      }
      return false;
    }
    case Kind::kCompareAttrs: {
      ULOAD_ASSIGN_OR_RETURN(AttrPath lp, ResolveAttrPath(schema, lhs_));
      ULOAD_ASSIGN_OR_RETURN(AttrPath rp, ResolveAttrPath(schema, rhs_attr_));
      std::vector<AtomicValue> left;
      std::vector<AtomicValue> right;
      CollectAtomsAt(tuple, schema, lp, 0, &left);
      CollectAtomsAt(tuple, schema, rp, 0, &right);
      for (const AtomicValue& a : left) {
        for (const AtomicValue& b : right) {
          if (CompareAtoms(a, cmp_, b)) return true;
        }
      }
      return false;
    }
    case Kind::kAnd: {
      ULOAD_ASSIGN_OR_RETURN(bool a, a_->Eval(schema, tuple));
      if (!a) return false;
      return b_->Eval(schema, tuple);
    }
    case Kind::kOr: {
      ULOAD_ASSIGN_OR_RETURN(bool a, a_->Eval(schema, tuple));
      if (a) return true;
      return b_->Eval(schema, tuple);
    }
    case Kind::kNot: {
      ULOAD_ASSIGN_OR_RETURN(bool a, a_->Eval(schema, tuple));
      return !a;
    }
    case Kind::kIsNull:
    case Kind::kNotNull: {
      ULOAD_ASSIGN_OR_RETURN(AttrPath path, ResolveAttrPath(schema, lhs_));
      bool any_non_null = false;
      const Attribute& attr = AttrAt(schema, path);
      if (attr.is_collection && path.size() >= 1 &&
          CollectionDepth(schema, path) == 0) {
        // "A is null" on a collection attribute means "A is empty".
        const Tuple* cur = &tuple;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          cur = &cur->fields[path[i]].collection().front();
        }
        any_non_null = !cur->fields[path.back()].collection().empty();
      } else {
        std::vector<AtomicValue> atoms;
        CollectAtomsAt(tuple, schema, path, 0, &atoms);
        for (const AtomicValue& v : atoms) {
          if (!v.is_null()) {
            any_non_null = true;
            break;
          }
        }
      }
      return kind_ == Kind::kIsNull ? !any_non_null : any_non_null;
    }
  }
  return Status::Internal("unhandled predicate kind");
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompareConst:
      return lhs_ + " " + ComparatorName(cmp_) + " " + constant_.ToString();
    case Kind::kCompareAttrs:
      return lhs_ + " " + ComparatorName(cmp_) + " " + rhs_attr_;
    case Kind::kAnd:
      return "(" + a_->ToString() + " and " + b_->ToString() + ")";
    case Kind::kOr:
      return "(" + a_->ToString() + " or " + b_->ToString() + ")";
    case Kind::kNot:
      return "not(" + a_->ToString() + ")";
    case Kind::kIsNull:
      return lhs_ + " is null";
    case Kind::kNotNull:
      return lhs_ + " is not null";
  }
  return "?";
}

}  // namespace uload
