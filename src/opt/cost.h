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

// Number of Exchange workers worth spawning to partition an input of `rows`
// tuples under `budget` threads: min(budget, rows), capped at 64 so a huge
// budget cannot degenerate into thousands of near-empty partitions. Returns
// 1 (serial) when the budget or the input cannot sustain two workers. The
// physical compiler's fan-out policy for structural joins.
size_t ChooseWorkerCount(int64_t rows, size_t budget);

// Capacity (in batches) of each of the per-worker SPSC queues between
// `workers` exchange producers and the k-way merge collector. A per-query
// memory budget (`budget_bytes` > 0) shrinks the queues so governed queries
// buffer less in flight: roughly half the budget is allowed to sit in queue
// slots across all workers, assuming `batch_bytes` per slot, clamped to
// [1, ungoverned capacity].
size_t ExchangeQueueCapacity(size_t workers, int64_t budget_bytes,
                             int64_t batch_bytes);

// Estimated cost of a plan whose leaf scans are the named patterns, priced
// for serial batch-at-a-time execution. `view_card` supplies per-relation
// base cardinalities (e.g. from the catalog).
double EstimatePlanCost(
    const LogicalPlan& plan, const PathSummary& summary,
    const std::function<double(const std::string&)>& view_card);

}  // namespace uload

#endif  // ULOAD_OPT_COST_H_
