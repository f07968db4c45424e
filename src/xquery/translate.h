// Algebraic translation and maximal tree-pattern extraction (thesis Ch. 3).
//
// A Q query is translated into:
//   * one XAM *query pattern* per group of structurally related variables —
//     patterns span nested FLWR blocks: for-variable chains become j edges,
//     where-clause chains become semijoin (s) edges with value formulas,
//     returned expressions become nest-outer (no) edges storing Cont/Val,
//     and nested blocks hang below their outer variable with no edges;
//   * cross-pattern value predicates (where $x/p θ $y/q) evaluated on the
//     cartesian product of the patterns;
//   * the compensating selections of §3.3.3 for dependencies tree patterns
//     cannot express (outer-variable expressions inside nested blocks);
//   * a tagging template rebuilding the query's constructed output.
//
// alg(q) is then: xml_templ(σ_filter(pattern_1 × ... × pattern_n)) — each
// pattern_i being evaluated by its algebraic XAM semantics (§2.2.2), which
// is exactly the structural-join expression full() of §3.3.
#ifndef ULOAD_XQUERY_TRANSLATE_H_
#define ULOAD_XQUERY_TRANSLATE_H_

#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "algebra/xml_template.h"
#include "common/status.h"
#include "xam/xam.h"
#include "xml/document_store.h"
#include "xquery/ast.h"

namespace uload {

struct Translation {
  // Extracted query patterns; node names are globally unique across
  // patterns, so the product schema has no name clashes.
  std::vector<Xam> patterns;
  // Cross-pattern comparison predicates from the top-level where clause.
  std::vector<PredicatePtr> cross_predicates;
  // Compensating selections (§3.3.3): conditions the patterns alone cannot
  // express. They characterize the difference between the patterns' data
  // and the query's needs. Only ToString() and the tests read them: neither
  // the rewriter nor any evaluator applies them (the template already
  // respects nesting).
  std::vector<PredicatePtr> compensations;
  // Construction template over the product of the patterns' view schemas.
  XmlTemplate templ;

  std::string ToString() const;
};

Result<Translation> TranslateQuery(const Expr& q);

// Evaluates alg(q): materializes each pattern via its XAM semantics, takes
// the product, applies cross-pattern predicates and the template.
Result<std::string> EvaluateTranslated(const Translation& tr,
                                       const DocumentStore& doc);

}  // namespace uload

#endif  // ULOAD_XQUERY_TRANSLATE_H_
