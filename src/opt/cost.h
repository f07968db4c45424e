// Cardinality and cost estimation over path summaries (thesis §1.2.4 notes
// that tree patterns are the common abstraction for XML cardinality
// estimation, so "preliminary cardinality information can be attached ...
// even before the actual optimisation").
//
// The summary stores the exact number of document nodes per path; pattern
// cardinalities derive from the per-path counts under an independence
// assumption for branch predicates. Plan costs combine input cardinalities
// per operator with simple per-tuple weights — enough to rank alternative
// rewritings, which is all the thesis's optimizer needs.
#ifndef ULOAD_OPT_COST_H_
#define ULOAD_OPT_COST_H_

#include <functional>

#include "algebra/logical_plan.h"
#include "summary/path_summary.h"
#include "xam/xam.h"

namespace uload {

// Estimated number of result tuples of the pattern over any document
// conforming to the summary (exact for conjunctive patterns without value
// predicates whose nodes map to single paths; an estimate otherwise).
// Value predicates apply a default selectivity of 0.1.
double EstimateCardinality(const Xam& pattern, const PathSummary& summary);

// Estimated cost of a plan whose leaf scans are the named patterns, priced
// for serial batch-at-a-time execution. `view_card` supplies per-relation
// base cardinalities (e.g. from the catalog).
double EstimatePlanCost(
    const LogicalPlan& plan, const PathSummary& summary,
    const std::function<double(const std::string&)>& view_card);

}  // namespace uload

#endif  // ULOAD_OPT_COST_H_
