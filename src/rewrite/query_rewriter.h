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

class QueryRewriter {
 public:
  // The rewriter reads view definitions from `catalog` and constraints from
  // `summary`; both must outlive this object.
  QueryRewriter(const PathSummary* summary, const Catalog* catalog);

  // Finds the cheapest rewriting for every pattern of `query`. Fails with
  // NotFound when some pattern has no equivalent rewriting.
  Result<QueryRewriteResult> Rewrite(std::string_view query,
                                     const RewriteOptions& opts = {}) const;
  Result<QueryRewriteResult> Rewrite(const Expr& query,
                                     const RewriteOptions& opts = {}) const;

  // Assembles the whole query into ONE logical plan: every pattern's
  // rewritten plan retyped to the pattern's view schema and ordered by a
  // Sort_φ enforcer (elidable when the stream can prove document order),
  // patterns combined by products, cross predicates as selections on top.
  // Constant queries (no patterns) become the unit relation.
  Result<PlanPtr> BuildPlan(const QueryRewriteResult& r) const;

 private:
  const PathSummary* summary_;
  const Catalog* catalog_;
};

}  // namespace uload

#endif  // ULOAD_REWRITE_QUERY_REWRITER_H_
