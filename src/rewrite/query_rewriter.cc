#include "rewrite/query_rewriter.h"

#include "xquery/parser.h"

namespace uload {

Result<QueryRewriteResult> QueryRewriter::Rewrite(const Rewriter& rewriter,
                                                  std::string_view query,
                                                  const RewriteOptions& opts) {
  ULOAD_ASSIGN_OR_RETURN(ExprPtr ast, ParseQuery(query));
  QueryRewriteResult out;
  ULOAD_ASSIGN_OR_RETURN(out.translation, TranslateQuery(*ast));
  for (const Xam& pattern : out.translation.patterns) {
    ULOAD_ASSIGN_OR_RETURN(Rewriting best,
                           rewriter.RewriteBest(pattern, opts));
    out.pattern_rewritings.push_back(std::move(best));
  }
  return out;
}

Result<PlanPtr> QueryRewriter::BuildPlan(const QueryRewriteResult& r) {
  PlanPtr cur;
  for (size_t i = 0; i < r.pattern_rewritings.size(); ++i) {
    SchemaPtr view_schema = r.translation.patterns[i].ViewSchema();
    // The query's for-loops follow document order; rewritten plans may
    // deliver view order. Sort_φ over every top-level atomic attribute in
    // schema order (leading attribute is the outermost id) restores it —
    // unless the physical stream's order already covers those keys, in
    // which case the compiler drops the enforcer.
    std::vector<std::string> keys;
    for (int a = 0; a < view_schema->size(); ++a) {
      if (!view_schema->attr(a).is_collection) {
        keys.push_back(view_schema->attr(a).name);
      }
    }
    PlanPtr pattern = LogicalPlan::SortOp(
        LogicalPlan::Retype(r.pattern_rewritings[i].plan, view_schema),
        std::move(keys));
    cur = cur == nullptr
              ? std::move(pattern)
              : LogicalPlan::Product(std::move(cur), std::move(pattern));
  }
  if (cur == nullptr) cur = LogicalPlan::Unit();
  for (const PredicatePtr& pred : r.translation.cross_predicates) {
    cur = LogicalPlan::Select(std::move(cur), pred);
  }
  return cur;
}

}  // namespace uload
