// Materializing evaluator for logical plans: the plan-level test oracle.
//
// Each operator consumes fully materialized nested relations and produces
// one; structural joins use the StackTree kernels when both join attributes
// are top-level (pre, post, depth) identifiers and fall back to map-based
// nested evaluation otherwise (the `map` meta-operator of §1.2.2). It shares
// nothing with the streaming engine beyond the schema derivations, so the
// differential tests compare two independent implementations of the same
// algebra. Built only into the test binary.
#ifndef ULOAD_TESTS_SUPPORT_EVALUATOR_H_
#define ULOAD_TESTS_SUPPORT_EVALUATOR_H_

#include <string>
#include <unordered_map>

#include "algebra/logical_plan.h"
#include "algebra/relation.h"
#include "common/status.h"
#include "exec/eval_context.h"
#include "xml/document_store.h"

namespace uload {

// Evaluates `plan` under `ctx`. Index scans read through `ctx.index_bind`.
Result<NestedRelation> Evaluate(const LogicalPlan& plan,
                                const EvalContext& ctx);

// Convenience: evaluates a plan whose only base relations are in `rels`.
Result<NestedRelation> Evaluate(
    const LogicalPlan& plan,
    const std::unordered_map<std::string, const NestedRelation*>& rels,
    const DocumentStore* doc = nullptr);

}  // namespace uload

#endif  // ULOAD_TESTS_SUPPORT_EVALUATOR_H_
