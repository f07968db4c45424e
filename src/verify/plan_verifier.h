// PlanVerifier: static analysis over logical and compiled physical plans.
//
// The thesis's physical-data-independence claim rests on the compiler always
// emitting plans whose schemas, order descriptors and structural-join
// placements are mutually consistent. This module proves those invariants
// statically, with no tuples flowing:
//
//  (1) Schema/type checking (VerifyLogicalPlan): the output schema of every
//      logical operator is inferred bottom-up, and every column referenced by
//      Select/Join predicates, projections, Retype maps, Sort keys, Navigate
//      sources and XML-construction bindings must resolve against the
//      inferred schema of its input. Diagnostics carry the operator path from
//      the plan root, the missing column, and the candidate columns.
//
//  (2) Order-descriptor soundness (VerifyPhysicalPlan): orders flow forward
//      from the leaves' declared orders (exec/order_descriptor.h). The order
//      descriptor is recomputed bottom-up through the compiled tree via each
//      operator's own propagation rule (PhysicalOperator::ProvableOrder),
//      and
//      * every operator's advertised order must be covered by the recomputed
//        one (an operator may not claim an order it cannot derive), and
//      * every order *requirement* (PhysicalOperator::RequiredChildOrder —
//        the StackTree join family) must be covered by the input's
//        advertised order, and
//      * every Sort_φ elision the compiler performed is re-checked as an
//        explicit obligation (PhysicalVerifyOptions::order_obligations).
//      A leaf's declaration is taken on trust here; the batch validator
//      checks it, with every other advertised order, against the stream.
//
//  (3) Fused-pipeline soundness (VerifyPhysicalPlan): every chain member's
//      recorded boundary schema and order are re-derived from the source.
//
//  (4) Shape compatibility (VerifyPhysicalPlan): a Union_φ's inputs must
//      have the same shape, since it re-tags the right side's batches.
//
// The dynamic leg of the verifier — per-batch schema and order validation —
// lives in verify/batch_validator.h.
//
// Wiring: Engine::Run/Explain verify the rewriter's combined plan before
// compiling it (a malformed plan surfaces as a Status instead of undefined
// behavior at execution time); CompilePhysicalPlan re-verifies the compiled
// tree when ExecContext::verify_plans() is set (the default); the randomized
// differential harness verifies every generated plan.
#ifndef ULOAD_VERIFY_PLAN_VERIFIER_H_
#define ULOAD_VERIFY_PLAN_VERIFIER_H_

#include <string>
#include <utility>
#include <vector>

#include "algebra/logical_plan.h"
#include "algebra/xml_template.h"
#include "exec/eval_context.h"
#include "exec/physical.h"

namespace uload {

// Infers the output schema of `plan` bottom-up, checking every column
// reference along the way. Returns the root schema, or a TypeError whose
// message carries the operator path, the offending column and the candidate
// columns of the input schema. Base-relation schemas come from `ctx` (the
// same context the plan would execute under); index-scan schemas are the
// schemas of the context's views, so verification runs no index lookup.
Result<SchemaPtr> VerifyLogicalPlan(const LogicalPlan& plan,
                                    const EvalContext& ctx);

// Checks that every value reference and iteration binding of `templ`
// resolves against `root_schema` (the schema of the tuples the template will
// be applied to — ApplyTemplateToTuple's contract, checked statically).
Status VerifyTemplate(const XmlTemplate& templ, const Schema& root_schema);

struct PhysicalVerifyOptions {
  // Sort_φ elision sites recorded by the compiler: for each entry the
  // operator's advertised order must cover the descriptor the elided sort
  // would have enforced.
  std::vector<std::pair<const PhysicalOperator*, OrderDescriptor>>
      order_obligations;
};

// Verifies a compiled physical operator tree: order-descriptor soundness,
// order-requirement coverage, fused-pipeline soundness and union shape
// compatibility.
Status VerifyPhysicalPlan(const PhysicalOperator& root,
                          const PhysicalVerifyOptions& opts = {});

}  // namespace uload

#endif  // ULOAD_VERIFY_PLAN_VERIFIER_H_
