// Physical data independence in action (thesis Ch. 2): the SAME query runs
// over four different storage layouts. Only the XAM catalog changes; the
// optimizer derives a different plan each time, and all results agree.
#include <cstdio>

#include "engine/engine.h"
#include "workload/xmark.h"
#include "xquery/interp.h"
#include "xquery/parser.h"

int main() {
  using namespace uload;

  Engine engine(GenerateXMark(XMarkScale(0.1)));
  const Document& doc = engine.document();
  const PathSummary& summary = engine.summary();
  std::printf("XMark-like document: %lld elements, summary %lld nodes\n\n",
              static_cast<long long>(doc.element_count()),
              static_cast<long long>(summary.size()));

  const char* query =
      "for $p in doc(\"x\")//people/person return "
      "<who>{$p/name/text()}</who>";
  auto ast = ParseQuery(query);
  if (!ast.ok()) return 1;
  auto direct = EvaluateQueryDirect(**ast, doc);
  if (!direct.ok()) return 1;

  struct Model {
    const char* name;
    std::vector<NamedXam> views;
  };
  std::vector<Model> models;
  models.push_back({"tag-partitioned (Timber/Natix-style)",
                    TagPartitionedModel(summary)});
  models.push_back({"path-partitioned (XQueC-style)",
                    PathPartitionedModel(summary)});
  models.push_back({"inlined shredding (Hybrid-style)",
                    InlinedShreddingModel(summary)});
  {
    std::vector<NamedXam> custom = TagPartitionedModel(summary);
    custom.push_back(TIndex("person", "name"));
    models.push_back({"tag-partitioned + tailored T-index",
                      std::move(custom)});
  }

  int failures = 0;
  for (Model& model : models) {
    std::printf("=== storage: %s ===\n", model.name);
    auto st = engine.InstallModel(std::move(model.views));
    if (!st.ok()) {
      std::printf("  %s\n", st.ToString().c_str());
      return 1;
    }
    auto prepared = engine.Prepare(query);
    if (!prepared.ok()) {
      std::printf("  no rewriting: %s\n\n",
                  prepared.status().ToString().c_str());
      continue;
    }
    const Rewriting& r = prepared->rewrite.pattern_rewritings[0];
    std::printf("  plan (%d operators, %zu views):\n", r.operator_count,
                r.views_used.size());
    std::printf("%s", r.plan->ToString().c_str());
    auto result = engine.Execute(*prepared, Engine::QueryOptions());
    bool matches = result.ok() && *result == *direct;
    std::printf("  result matches direct evaluation: %s\n\n",
                matches ? "yes" : "NO");
    if (!matches) failures++;
  }
  return failures == 0 ? 0 : 1;
}
