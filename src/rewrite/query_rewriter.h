// The full rewriting pipeline of thesis Fig. 5.1: translate the XQuery into
// query patterns + value joins + tagging template (Ch. 3), rewrite every
// query pattern over the view set (this chapter), and splice the rewritten
// plans back under the query's construction template.
#ifndef ULOAD_REWRITE_QUERY_REWRITER_H_
#define ULOAD_REWRITE_QUERY_REWRITER_H_

#include <string>
#include <string_view>
#include <vector>

#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "xquery/translate.h"

namespace uload {

struct QueryRewriteResult {
  Translation translation;
  // One rewriting per translation pattern, in order.
  std::vector<Rewriting> pattern_rewritings;
};

// Stateless: callers that construct one (perfbench/trace.cc) keep
// compiling; everyone else calls the static members.
class QueryRewriter {
 public:
  QueryRewriter(const PathSummary*, const Catalog*) {}

  // Finds `rewriter`'s cheapest rewriting for every pattern of `query`.
  // Fails with NotFound when some pattern has no equivalent rewriting.
  static Result<QueryRewriteResult> Rewrite(const Rewriter& rewriter,
                                            std::string_view query,
                                            const RewriteOptions& opts = {});

  // Assembles the whole query into ONE logical plan: every pattern's
  // rewritten plan retyped to the pattern's view schema and ordered by a
  // Sort_φ enforcer (elidable when the stream can prove document order),
  // patterns combined by products, cross predicates as selections on top.
  // Constant queries (no patterns) become the unit relation.
  static Result<PlanPtr> BuildPlan(const QueryRewriteResult& r);
};

}  // namespace uload

#endif  // ULOAD_REWRITE_QUERY_REWRITER_H_
