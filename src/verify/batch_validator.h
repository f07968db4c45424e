// Runtime batch validation (debug mode of the plan verifier).
//
// The static PlanVerifier (verify/plan_verifier.h) proves that every plan the
// compiler emits is schema- and order-consistent *before* a single tuple
// flows, taking each leaf's declared order on trust. The batch validator is
// its dynamic counterpart: in debug/test builds every TupleBatch an operator
// produces is cross-checked against the operator's statically inferred
// schema — field counts, atomic-vs-collection shape at every nesting level,
// and the batch's schema tag — and against its advertised order(), across
// batch boundaries. A mismatch turns silent memory corruption (a field index
// into the wrong slot) or a false order declaration (a structural join fed
// out of document order) into an immediate Status::Internal naming the
// operator.
//
// Compiled in when the CMake option ULOAD_VALIDATE_BATCHES is on, which it
// is in every non-Release build (kValidateBatches, exec/exec_context.h), so
// the whole test suite runs validated and Release builds pay nothing.
#ifndef ULOAD_VERIFY_BATCH_VALIDATOR_H_
#define ULOAD_VERIFY_BATCH_VALIDATOR_H_

#include <vector>

#include "algebra/tuple_batch.h"
#include "common/status.h"
#include "exec/order_descriptor.h"

namespace uload {

// TypeError unless `t` structurally matches `schema`: one field per
// attribute, atomic fields for atomic attributes (null allowed), collection
// fields for collection attributes, recursively. The message names the
// mismatched attribute path.
Status ValidateTupleShape(const Schema& schema, const Tuple& t);

// Validates every tuple of `batch` against `schema`, and the batch's own
// schema tag against `schema` (pointer fast path, deep Equals otherwise).
// The message carries the index of the first offending tuple.
Status ValidateBatch(const Schema& schema, const TupleBatch& batch);

// TypeError unless `batch` continues a stream sorted per `order`: each tuple
// compares with its predecessor, lexicographically over the order's leading
// top-level keys with AtomicValue::Compare, the way SortBy orders them (a
// dotted key orders nested collections, not the stream, and ends the check).
// `*tail` carries the key values of the stream's last tuple from one batch to
// the next; clear it when the stream restarts.
Status ValidateBatchOrder(const OrderDescriptor& order, const TupleBatch& batch,
                          std::vector<AtomicValue>* tail);

}  // namespace uload

#endif  // ULOAD_VERIFY_BATCH_VALIDATOR_H_
