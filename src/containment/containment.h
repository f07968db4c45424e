// Pattern containment under path-summary constraints (thesis §4.4).
//
// p ⊆_S q is decided via Prop. 4.4.1: build mod_S(p) and check that each
// canonical tree's return tuple belongs to q(t_e). The check supports every
// pattern extension of Chapter 4:
//  * decorated patterns — value formulas are verified by the multi-variable
//    implication condition of §4.4.2 (complete for unions of decorated
//    patterns, not merely per-node implication);
//  * optional edges — optional-embedding semantics with maximal matching;
//  * attribute patterns — paired return nodes must store the same
//    attributes (Prop. 4.4.3);
//  * nested patterns — nesting-depth and nesting-sequence conditions with
//    the one-to-one-edge relaxation (Prop. 4.4.4).
#ifndef ULOAD_CONTAINMENT_CONTAINMENT_H_
#define ULOAD_CONTAINMENT_CONTAINMENT_H_

#include <vector>

#include "common/status.h"
#include "containment/canonical_model.h"
#include "containment/embedding.h"
#include "summary/path_summary.h"
#include "xam/xam.h"

namespace uload {

struct ContainmentOptions {
  // Cap on |mod_S(p)| (worst case is |S|^|p|; real patterns stay tiny). A
  // model with more trees answers "not contained": an unchecked tree could
  // be the counterexample.
  size_t model_limit = 1u << 16;
};

struct ContainmentStats {
  size_t canonical_model_size = 0;
  size_t embeddings_checked = 0;
  // The canonical model passed `model_limit`, so the answer was "not
  // contained" without a refuting tree.
  bool truncated = false;
  // Proofs cut short inside a canonical tree: the tree may stay unverified,
  // so "not contained" may come from a limit rather than a counterexample.
  // Both add up across calls that share the stats. Canonical trees that
  // reached the per-tree cap of 64 value-constrained embeddings:
  size_t disjunct_cap_hits = 0;
  // Implication tests that ran out of their 100,000-step search budget:
  size_t implication_budget_exhausted = 0;
};

// p ⊆_S q.
Result<bool> IsContained(const Xam& p, const Xam& q,
                         const PathSummary& summary,
                         const ContainmentOptions& opts = {},
                         ContainmentStats* stats = nullptr);

// p ⊆_S q1 ∪ ... ∪ qm (Prop. 4.4.2 / §4.4.2).
Result<bool> IsContainedInUnion(const Xam& p, const std::vector<const Xam*>& qs,
                                const PathSummary& summary,
                                const ContainmentOptions& opts = {},
                                ContainmentStats* stats = nullptr);

// Two-way containment. `stats`, when given, reports the last direction
// checked; `truncated` is set if either direction was truncated.
Result<bool> AreEquivalent(const Xam& p, const Xam& q,
                           const PathSummary& summary,
                           const ContainmentOptions& opts = {},
                           ContainmentStats* stats = nullptr);

// A necessary condition for p ⊆_S q read off path annotations, without a
// canonical model: true (p ⊄_S q) when some return node of p has an
// annotation path outside the annotation of q's return node at the same
// position. `p_ann` and `q_ann` are PathAnnotations(p) and PathAnnotations(q).
// Sound because arc consistency is exact on tree patterns: every path in
// p's return annotation is that return node's path in some canonical tree
// of p, and q must map its own return node onto it, which puts the path in
// q's annotation. Decides nothing (false) when p carries an unsatisfiable
// formula, since p is then contained in every pattern.
bool AnnotationsRefuteContainment(const Xam& p, const AnnotationSets& p_ann,
                                  const Xam& q, const AnnotationSets& q_ann);

}  // namespace uload

#endif  // ULOAD_CONTAINMENT_CONTAINMENT_H_
