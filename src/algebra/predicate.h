// Predicates over (possibly nested) tuple attributes.
//
// Atoms are comparisons A θ c or A θ B with θ in {=, ≠, <, ≤, >, ≥, ≺, ≺≺,
// contains}; ≺ / ≺≺ apply to identifier values only (thesis §1.2.2).
// Predicates over attributes nested inside collections have existential
// semantics, via the map meta-operator extension.
#ifndef ULOAD_ALGEBRA_PREDICATE_H_
#define ULOAD_ALGEBRA_PREDICATE_H_

#include <memory>
#include <string>

#include "algebra/relation.h"

namespace uload {

enum class Comparator : uint8_t {
  kEq = 0,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kParent,    // ≺  : lhs is the parent of rhs
  kAncestor,  // ≺≺ : lhs is an ancestor of rhs
  kContainsWord,
};

const char* ComparatorName(Comparator cmp);
// Applies `cmp` to two atoms. Comparisons involving null are false.
bool CompareAtoms(const AtomicValue& a, Comparator cmp, const AtomicValue& b);

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

class Predicate {
 public:
  enum class Kind {
    kTrue,
    kCompareConst,  // attr θ constant
    kCompareAttrs,  // attr θ attr (both in the same tuple)
    kAnd,
    kOr,
    kNot,
    kIsNull,
    kNotNull,
  };

  static PredicatePtr True();
  static PredicatePtr CompareConst(std::string attr, Comparator cmp,
                                   AtomicValue constant);
  static PredicatePtr CompareAttrs(std::string lhs, Comparator cmp,
                                   std::string rhs);
  static PredicatePtr And(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Or(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Not(PredicatePtr a);
  static PredicatePtr IsNull(std::string attr);
  static PredicatePtr NotNull(std::string attr);

  Kind kind() const { return kind_; }
  const std::string& lhs() const { return lhs_; }
  const std::string& rhs_attr() const { return rhs_attr_; }
  const AtomicValue& constant() const { return constant_; }
  Comparator comparator() const { return cmp_; }
  const PredicatePtr& left() const { return a_; }
  const PredicatePtr& right() const { return b_; }

  // Evaluates against one tuple. Attributes nested under collections use
  // existential semantics.
  Result<bool> Eval(const Schema& schema, const Tuple& tuple) const;

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kTrue;
  std::string lhs_;
  std::string rhs_attr_;
  AtomicValue constant_;
  Comparator cmp_ = Comparator::kEq;
  PredicatePtr a_;
  PredicatePtr b_;
};

}  // namespace uload

#endif  // ULOAD_ALGEBRA_PREDICATE_H_
