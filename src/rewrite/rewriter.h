// Rewriting query XAMs using materialized XAM views under summary
// constraints (thesis Ch. 5).
//
// Generate-and-test search over (plan, pattern) pairs:
//  * seeds: one pair per view (names prefixed to stay unique);
//  * compositions (§5.5): structural joins between views with structural
//    ids, node-identity (equality) joins, and ancestor-derivation joins for
//    navigational (Dewey) ids — each validated by annotation preservation;
//  * adaptations (§5.3-5.4): compensating value selections, strictification
//    of optional edges (σ not-null), navigation from stored identifiers to
//    uncovered query nodes, and a final projection aligning the plan's
//    columns with the query pattern's needs;
//  * verification: S-equivalence of the adapted pattern with the query
//    pattern (Ch. 4 containment, both ways);
//  * unions (§5.3): pairs of strictly-contained candidates whose union is
//    S-equivalent to the query.
//
// A Rewriter lives as long as its view set (the Engine keeps one per
// installed catalog): its constructor computes everything the search needs
// from a view alone, and each Rewrite call keeps only per-query state, so
// concurrent Rewrite calls on one Rewriter are safe.
#ifndef ULOAD_REWRITE_REWRITER_H_
#define ULOAD_REWRITE_REWRITER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "containment/embedding.h"
#include "rewrite/plan_pattern.h"
#include "storage/storage_models.h"
#include "summary/path_summary.h"

namespace uload {

struct RewriteOptions {
  // Stop the search after this many equivalent rewritings.
  size_t max_results = 16;
};

struct RewriteStats {
  size_t candidates_generated = 0;
  size_t adaptations_tried = 0;
  // Containment proofs actually run (AreEquivalent, plus the union checks).
  size_t equivalence_checks = 0;
  // Candidates rejected by annotation inclusion before any proof.
  size_t equivalence_pruned = 0;
  // Candidates answered by an earlier proof of the same pattern.
  size_t equivalence_memo_hits = 0;
  // Containment tests whose canonical model passed the cap (answered "not
  // contained" without a refuting tree).
  size_t containment_truncations = 0;
};

struct Rewriting {
  PlanPtr plan;  // over view names; columns projected to the query's needs
  Xam pattern;   // S-equivalent to the plan AND to the query pattern
  // Query attribute (dotted path in the query pattern's view schema) ->
  // column (dotted path) in the plan's output.
  std::vector<std::pair<std::string, std::string>> attr_map;
  std::vector<std::string> views_used;
  int operator_count = 0;
  // Summary-derived cost estimate (opt/cost.h); the primary ranking key.
  double estimated_cost = 0;
};

class Rewriter {
 public:
  // `views` are the storage XAMs the optimizer knows about (the catalog
  // contents); the summary provides the structural constraints and must
  // outlive the rewriter.
  Rewriter(const PathSummary* summary, std::vector<NamedXam> views);

  // All equivalent rewritings found for `query`, cheapest (fewest operators)
  // first. Empty result = no rewriting exists within the search bounds.
  Result<std::vector<Rewriting>> Rewrite(const Xam& query,
                                         const RewriteOptions& opts = {},
                                         RewriteStats* stats = nullptr) const;

  // Convenience: the cheapest rewriting or NotFound.
  Result<Rewriting> RewriteBest(const Xam& query,
                                const RewriteOptions& opts = {},
                                RewriteStats* stats = nullptr) const;

  // What the search knows about one satisfiable view before any query.
  struct View {
    std::string name;
    std::string prefix;  // "v<i>_", i = the view's position in the input
    Xam pattern;         // the definition with every name prefixed
    std::shared_ptr<const AnnotationSets> ann;  // PathAnnotations(pattern)
    std::vector<SummaryNodeId> return_ann;  // ann of every return node
    // R-marked (Def. 2.2.6): an index seed needs the query's constants, so
    // `plan` is null and the search builds an IndexScan per query.
    bool index = false;
    PlanPtr plan;  // the prefixed Scan
  };

 private:
  const PathSummary* summary_;
  std::vector<View> views_;
  // EstimateCardinality of every view, by name (the first view of a name).
  std::unordered_map<std::string, double> cards_;
};

}  // namespace uload

#endif  // ULOAD_REWRITE_REWRITER_H_
