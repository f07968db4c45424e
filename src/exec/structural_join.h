// Stack-based structural join algorithms (thesis §1.2.3).
//
// StackTreeDesc / StackTreeAnc are the physical operators of Al-Khalifa et
// al. [7]: both require their inputs sorted by document order; the former
// emits result pairs ordered by the descendant id, the latter by the
// ancestor id. The kernels work over id arrays: the E8 bench times them,
// and the test oracle (tests/support/evaluator.h) maps relation attributes
// onto them and builds the semi/outer/nest variants on top. The engine's
// streaming joins are StackTreeDesc_φ / StackTreeAnc_φ in exec/physical.cc.
#ifndef ULOAD_EXEC_STRUCTURAL_JOIN_H_
#define ULOAD_EXEC_STRUCTURAL_JOIN_H_

#include <cstddef>
#include <vector>

#include "algebra/logical_plan.h"
#include "xml/ids.h"

namespace uload {

struct JoinPair {
  size_t ancestor;    // index into the ancestor-side input
  size_t descendant;  // index into the descendant-side input
};

// All (a, d) with anc[a] ancestor-of (axis kDescendant) or parent-of (axis
// kChild) desc[d]. Inputs must be sorted by pre. Output ordered by d, then a.
std::vector<JoinPair> StackTreeDesc(const std::vector<StructuralId>& anc,
                                    const std::vector<StructuralId>& desc,
                                    Axis axis);

// Same pairs, ordered by a, then d.
std::vector<JoinPair> StackTreeAnc(const std::vector<StructuralId>& anc,
                                   const std::vector<StructuralId>& desc,
                                   Axis axis);

// Reference nested-loop implementation (baseline for tests and the E8
// benchmark). Output ordered by a, then d.
std::vector<JoinPair> NestedLoopStructuralJoin(
    const std::vector<StructuralId>& anc,
    const std::vector<StructuralId>& desc, Axis axis);

}  // namespace uload

#endif  // ULOAD_EXEC_STRUCTURAL_JOIN_H_
