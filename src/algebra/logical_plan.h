// Logical algebra plans (thesis §1.2.2).
//
// Plans are immutable trees shared via shared_ptr. The operator set covers
// what the rewriter and view construction build: scans (plain and index
// lookups over R-marked XAMs), selections, projections
// (duplicate-preserving and -eliminating), cartesian products, value joins,
// the structural join family (parent-child and ancestor-descendant; inner /
// semi / outer / nest / nest-outer), union, plus the two rewriting-support
// operators: parent-ID derivation for navigational identifiers (§5.2) and
// compensating navigation inside stored subtrees. Nesting happens only
// through the nest join variants, and XML construction is the template
// applied to the plan's output (algebra/xml_template.h), not a plan
// operator.
#ifndef ULOAD_ALGEBRA_LOGICAL_PLAN_H_
#define ULOAD_ALGEBRA_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "xml/ids.h"

namespace uload {

enum class PlanOp : uint8_t {
  kScan,            // named stored relation / view
  kIndexScan,       // scan of an R-marked view given equality bindings
  kSelect,
  kProject,
  kProduct,
  kValueJoin,       // θ-join on atomic attributes
  kStructuralJoin,  // ≺ or ≺≺ join on identifier attributes
  kUnion,
  kDeriveParent,    // Dewey-only: append the ancestor id at a given depth
  kNavigate,        // evaluate path steps from stored ids into the document
  kPrefixNames,     // rename every attribute (at all levels) with a prefix
  kRetype,          // re-tag the stream with a structurally identical schema
  kSortOp,          // Sort_φ enforcer: order by top-level atomic attributes
  kUnit,            // the unit relation: empty schema, one empty tuple
};

enum class JoinVariant : uint8_t {
  kInner = 0,  // j
  kSemi,       // s
  kLeftOuter,  // o
  kNestJoin,   // nj
  kNestOuter,  // no
};

enum class Axis : uint8_t { kChild = 0, kDescendant };

const char* JoinVariantName(JoinVariant v);
const char* AxisName(Axis a);

// One navigation step for kNavigate.
struct NavStep {
  Axis axis = Axis::kChild;
  // Element tag / "@attr" / "#text"; empty = any element ('*').
  std::string label;
};

// Which columns kNavigate emits for the reached node.
struct NavEmit {
  bool id = false;
  bool tag = false;
  bool val = false;
  bool cont = false;
  // Representation of emitted identifiers (kParental -> Dewey paths).
  IdKind id_kind = IdKind::kStructural;
  // Output attribute name prefix; emitted columns are <prefix>_ID etc.
  std::string prefix;
};

class LogicalPlan;
using PlanPtr = std::shared_ptr<const LogicalPlan>;

class LogicalPlan {
 public:
  // --- Factories -----------------------------------------------------------
  static PlanPtr Scan(std::string relation);
  static PlanPtr IndexScan(
      std::string relation,
      std::vector<std::pair<std::string, AtomicValue>> bindings);
  static PlanPtr Select(PlanPtr input, PredicatePtr pred);
  static PlanPtr Project(PlanPtr input, std::vector<std::string> attrs,
                         bool dedup = false);
  static PlanPtr Product(PlanPtr left, PlanPtr right);
  static PlanPtr ValueJoin(PlanPtr left, PlanPtr right, std::string left_attr,
                           Comparator cmp, std::string right_attr,
                           JoinVariant variant = JoinVariant::kInner,
                           std::string nest_as = "");
  static PlanPtr StructuralJoin(PlanPtr left, PlanPtr right,
                                std::string left_attr, Axis axis,
                                std::string right_attr, JoinVariant variant,
                                std::string nest_as = "");
  static PlanPtr Union(PlanPtr left, PlanPtr right);
  static PlanPtr DeriveParent(PlanPtr input, std::string id_attr,
                              std::string out_attr, uint32_t target_depth);
  static PlanPtr Navigate(PlanPtr input, std::string id_attr,
                          std::vector<NavStep> steps, NavEmit emit,
                          JoinVariant variant = JoinVariant::kInner);
  // Renames every attribute at every nesting level to <prefix><name>; used
  // when combining views so column names stay unique across sources.
  static PlanPtr PrefixNames(PlanPtr input, std::string prefix);
  // Re-tags the stream under `schema`, which must have the same structural
  // shape (atomic/collection pattern) as the input's schema. Metadata-only:
  // the rewriter uses it to align a view plan's columns with the query
  // pattern's attribute names.
  static PlanPtr Retype(PlanPtr input, SchemaPtr schema);
  // Sort_φ enforcer: orders the stream by the given top-level atomic
  // attributes (ascending, in key order). The physical compiler elides it
  // when the input stream's order already covers the keys.
  static PlanPtr SortOp(PlanPtr input, std::vector<std::string> keys);
  // The unit relation: no attributes, exactly one (empty) tuple. Constant
  // queries (no data access) run their template over it.
  static PlanPtr Unit();

  // --- Accessors -----------------------------------------------------------
  PlanOp op() const { return op_; }
  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }
  const std::string& relation() const { return relation_; }
  const PredicatePtr& predicate() const { return predicate_; }
  const std::vector<std::string>& attrs() const { return attrs_; }
  bool dedup() const { return dedup_; }
  const std::string& left_attr() const { return left_attr_; }
  const std::string& right_attr() const { return right_attr_; }
  Comparator comparator() const { return cmp_; }
  Axis axis() const { return axis_; }
  JoinVariant variant() const { return variant_; }
  const std::string& nest_as() const { return nest_as_; }
  const std::vector<std::pair<std::string, AtomicValue>>& bindings() const {
    return bindings_;
  }
  const std::vector<NavStep>& nav_steps() const { return nav_steps_; }
  const NavEmit& nav_emit() const { return nav_emit_; }
  uint32_t target_depth() const { return target_depth_; }
  const SchemaPtr& retype_schema() const { return retype_schema_; }

  // Number of operators in the plan (rewriting prefers minimal plans, §5.3).
  int OperatorCount() const;

  // Multi-line indented rendering.
  std::string ToString() const;

 private:
  void Render(int indent, std::string* out) const;

  PlanOp op_ = PlanOp::kScan;
  PlanPtr left_;
  PlanPtr right_;
  std::string relation_;
  PredicatePtr predicate_;
  std::vector<std::string> attrs_;
  bool dedup_ = false;
  std::string left_attr_;
  std::string right_attr_;
  Comparator cmp_ = Comparator::kEq;
  Axis axis_ = Axis::kChild;
  JoinVariant variant_ = JoinVariant::kInner;
  std::string nest_as_;
  std::vector<std::pair<std::string, AtomicValue>> bindings_;
  std::vector<NavStep> nav_steps_;
  NavEmit nav_emit_;
  uint32_t target_depth_ = 0;
  SchemaPtr retype_schema_;
};

}  // namespace uload

#endif  // ULOAD_ALGEBRA_LOGICAL_PLAN_H_
