// Output-schema derivation shared by the physical (iterator) engine, the plan
// verifier and the test oracle, and the executor's one rule for what a join
// variant emits.
#ifndef ULOAD_EXEC_PLAN_SCHEMAS_H_
#define ULOAD_EXEC_PLAN_SCHEMAS_H_

#include <deque>
#include <vector>

#include "algebra/logical_plan.h"
#include "algebra/relation.h"
#include "common/status.h"

namespace uload {

// Schema of a join's output per variant: concat (inner/outer), left only
// (semi), left + one collection named `nest_as` (nest variants).
SchemaPtr JoinOutputSchema(const Schema& left, const Schema& right,
                           JoinVariant variant, const std::string& nest_as);

// What one left tuple and its matches produce under `variant` (the XAM edge
// variants j, s, o, nj and no), appended to `out` in JoinOutputSchema's
// layout. StackTreeAnc_φ, HashJoin_φ, NestedLoopJoin_φ and Navigate_φ emit
// through it; StackTreeDesc_φ, inner only, emits each pair as it finds it.
//  - inner: left ++ m for each match;
//  - semi: left, if anything matched;
//  - outer: as inner, or left ++ NullTuple(right) when nothing matched;
//  - nest-join, nest-outer: left plus the collection of its matches;
//    nest-join drops a left tuple with no match.
// The matches are `pool[rows[i]]`, or all of `*pool` when `rows` is null. A
// whole pool is the caller's to give away (the nest variants move it into
// the collection); picked rows are only read, and copied into the output.
void EmitJoinVariant(JoinVariant variant, Tuple left, TupleList* pool,
                     const std::vector<size_t>* rows, const Schema& right,
                     std::deque<Tuple>* out);

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
