// Building equivalent (plan, pattern) pairs (thesis §5.5).
//
// The rewriting search manipulates pairs of a logical plan over materialized
// views and a XAM pattern S-equivalent to that plan. This module provides
// the pattern-side surgery for each plan-building step, each validated by
// path-annotation reasoning: a combination step is accepted only when the
// combined pattern's node annotations stay within the source patterns'
// annotations, which guarantees no constraint of the sources was lost
// (otherwise the plan would be equivalent to a union of patterns or to no
// pattern at all — Fig. 5.3's p1 ⋈ p2 example).
#ifndef ULOAD_REWRITE_PLAN_PATTERN_H_
#define ULOAD_REWRITE_PLAN_PATTERN_H_

#include <optional>
#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "containment/embedding.h"
#include "xam/xam.h"

namespace uload {

// Clones `x` with every node name (except ⊤) prefixed — plan attribute
// names and pattern node names stay in sync across view combinations.
Xam PrefixXamNames(const Xam& x, const std::string& prefix);

// Copies the subtree of `src` rooted at `src_node` (inclusive) under
// `dst_at` in `dst`, connected by `axis`/`variant`. Returns the new root's
// id in dst.
XamNodeId GraftSubtree(Xam* dst, XamNodeId dst_at, Axis axis,
                       JoinVariant variant, const Xam& src,
                       XamNodeId src_node);

// A composed pattern and its path annotations.
struct ComposedPattern {
  Xam pattern;
  AnnotationSets annotations;
};

// Structural-join composition: pattern2's subtree at `n2` hangs below
// pattern1's `n1` through a descendant edge. `ann1`/`ann2` are the sources'
// path annotations. Returns nullopt when the result would not be
// S-equivalent to the join plan: every composed node that comes from a
// source must keep an annotation within the source's annotation for that
// node (no lost constraints) and non-empty (satisfiable).
std::optional<ComposedPattern> ComposeStructural(
    const Xam& p1, const AnnotationSets& ann1, XamNodeId n1, const Xam& p2,
    const AnnotationSets& ann2, XamNodeId n2, const PathSummary& summary);

// Node-identity (equality-join) composition: pattern2's node `n2` is the
// same document node as pattern1's `n1`; n2's children subtrees merge under
// n1 and the stored attributes union. Validated like ComposeStructural, with
// the merged node checked against n2's annotation.
std::optional<ComposedPattern> ComposeMerge(
    const Xam& p1, const AnnotationSets& ann1, XamNodeId n1, const Xam& p2,
    const AnnotationSets& ann2, XamNodeId n2, const PathSummary& summary);

}  // namespace uload

#endif  // ULOAD_REWRITE_PLAN_PATTERN_H_
