// Output-schema derivation shared by the physical (iterator) engine, the plan
// verifier and the test oracle.
#ifndef ULOAD_EXEC_PLAN_SCHEMAS_H_
#define ULOAD_EXEC_PLAN_SCHEMAS_H_

#include "algebra/logical_plan.h"
#include "algebra/relation.h"
#include "common/status.h"

namespace uload {

// Schema of a join's output per variant: concat (inner/outer), left only
// (semi), left + one collection named `nest_as` (nest variants).
SchemaPtr JoinOutputSchema(const Schema& left, const Schema& right,
                           JoinVariant variant, const std::string& nest_as);

// Schema of a DeriveParent: the input plus one atomic column `out_attr`.
SchemaPtr DeriveParentSchema(const Schema& input, const std::string& out_attr);

// Schema with every attribute (at all nesting levels) renamed to
// <prefix><name>.
SchemaPtr PrefixedSchema(const Schema& schema, const std::string& prefix);

// Schema of the columns a Navigate emits.
SchemaPtr NavigateEmitSchema(const NavEmit& emit);

// Schema of a projection given dotted attribute paths (nested paths keep
// their collection structure).
Result<SchemaPtr> ProjectionSchema(const Schema& schema,
                                   const std::vector<std::string>& attrs);

// Prebuilt projection: resolves the dotted paths against the schema once so
// the per-tuple apply does no string work — the batched executor's hot path.
class TupleProjector {
 public:
  static Result<TupleProjector> Make(const Schema& schema,
                                     const std::vector<std::string>& attrs);
  const SchemaPtr& schema() const { return schema_; }
  Tuple Apply(const Tuple& t) const { return Project(roots_, t); }
  // Steals fields from `t`; each field index appears at most once, so the
  // moved-from tuple is simply discarded by the caller.
  Tuple Apply(Tuple&& t) const { return ProjectMove(roots_, t); }

 private:
  struct Node {
    int index = 0;
    bool recurse = false;  // project inside the collection at `index`
    std::vector<Node> kids;
  };
  static Tuple Project(const std::vector<Node>& nodes, const Tuple& t);
  static Tuple ProjectMove(const std::vector<Node>& nodes, Tuple& t);
  std::vector<Node> roots_;
  SchemaPtr schema_;
};

// TypeError unless `from` and `to` have the same structural shape (attribute
// count and atomic/collection pattern at every nesting level) — the Retype
// operator's legality check.
Status CheckSameShape(const Schema& from, const Schema& to);

}  // namespace uload

#endif  // ULOAD_EXEC_PLAN_SCHEMAS_H_
