// Quickstart: parse a document, build its summary, register materialized
// XAM views, and run an XQuery through the view-based rewriter — the whole
// physical-data-independence loop in one file.
#include <cstdio>

#include "engine/engine.h"
#include "xquery/interp.h"
#include "xquery/parser.h"

int main() {
  using namespace uload;

  // 1. An XML document.
  const char* xml =
      "<bib>"
      "<book><title>Data on the Web</title><year>1999</year>"
      "<author>Abiteboul</author><author>Suciu</author></book>"
      "<book><title>The Syntactic Web</title><year>2002</year>"
      "<author>Tim</author></book>"
      "</bib>";
  auto parsed = Document::Parse(xml);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  // The engine owns the document and builds its path summary.
  Engine engine(std::move(parsed).value());

  // 2. Its path summary (the structural constraints the optimizer uses).
  const PathSummary& summary = engine.summary();
  std::printf("summary has %lld paths; e.g. book titles live on %s\n",
              static_cast<long long>(summary.size()),
              summary.PathString(summary.NodeByPath({"bib", "book", "title"}))
                  .c_str());

  // 3. A storage model, described to the optimizer purely as a XAM set.
  auto st = engine.InstallModel(TagPartitionedModel(summary));
  if (!st.ok()) {
    std::printf("materialization error: %s\n", st.ToString().c_str());
    return 1;
  }
  const Catalog& catalog = engine.catalog();
  std::printf("catalog: %zu views, ~%lld bytes\n", catalog.views().size(),
              static_cast<long long>(catalog.TotalBytes()));

  // 4. An XQuery, rewritten over the views and executed.
  const char* query =
      "for $x in doc(\"bib.xml\")//book where $x/year = \"1999\" "
      "return <info>{$x/author}{$x/title}</info>";
  auto prepared = engine.Prepare(query);
  if (!prepared.ok()) {
    std::printf("rewrite error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const QueryRewriteResult& rewritten = prepared->rewrite;
  std::printf("\nquery pattern(s):\n%s",
              rewritten.translation.ToString().c_str());
  for (const Rewriting& r : rewritten.pattern_rewritings) {
    std::printf("rewritten plan (over views %s...):\n%s",
                r.views_used.empty() ? "-" : r.views_used[0].c_str(),
                r.plan->ToString().c_str());
  }
  auto result = engine.Execute(*prepared, Engine::QueryOptions());
  if (!result.ok()) {
    std::printf("execution error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nresult:\n%s\n", result->c_str());

  // 5. Cross-check against the direct interpreter.
  auto ast = ParseQuery(query);
  auto direct = EvaluateQueryDirect(**ast, engine.document());
  bool agrees = direct.ok() && *direct == *result;
  std::printf("\ndirect interpreter agrees: %s\n", agrees ? "yes" : "NO");
  return agrees ? 0 : 1;
}
