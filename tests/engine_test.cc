// Engine facade tests: the streaming serving path (Run) must reproduce the
// direct interpreter byte for byte, for every storage model, across batch
// sizes; Explain / ExplainAnalyze must expose the
// compiled plan and its runtime counters.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"
#include "xquery/interp.h"
#include "xquery/parser.h"

namespace uload {
namespace {

constexpr const char* kBib =
    "<bib>"
    "<book><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<phdthesis><title>XAMs</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

struct ModelSpec {
  const char* name;
  std::function<std::vector<NamedXam>(const PathSummary&)> build;
};

std::vector<ModelSpec> AllModels() {
  return {
      {"edge", [](const PathSummary&) { return EdgeModel(); }},
      {"universal", [](const PathSummary& s) { return UniversalModel(s); }},
      {"node_table", [](const PathSummary&) { return NodeTableModel(); }},
      {"structural_id",
       [](const PathSummary&) { return StructuralIdModel(); }},
      {"tag_partitioned",
       [](const PathSummary& s) { return TagPartitionedModel(s); }},
      {"path_partitioned",
       [](const PathSummary& s) { return PathPartitionedModel(s); }},
  };
}

std::string DirectResult(const std::string& query, const Document& doc) {
  auto ast = ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto direct = EvaluateQueryDirect(**ast, doc);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString();
  return direct.ok() ? *direct : std::string();
}

// The (model × query) cells that must rewrite: model name → indices into
// the corpus's query list. Every other cell must fail with NotFound. A
// rewriter change that gains or loses a cell fails the test, so the table
// is only ever edited on purpose.
using RewriteTable = std::map<std::string, std::vector<size_t>>;

bool MustRewrite(const RewriteTable& table, const std::string& model,
                 size_t query) {
  auto it = table.find(model);
  if (it == table.end()) return false;
  for (size_t q : it->second) {
    if (q == query) return true;
  }
  return false;
}

// Runs every query over every storage model at every batch size. A cell listed in `must_rewrite` must succeed and
// agree byte for byte with the direct interpreter; every other cell must
// fail with NotFound.
void CheckDifferential(const std::function<Document()>& make_doc,
                       const std::vector<std::string>& queries,
                       const RewriteTable& must_rewrite) {
  const size_t kBatchSizes[] = {1, 1024};
  for (const ModelSpec& m : AllModels()) {
    for (size_t batch : kBatchSizes) {
      Engine::Options o;
      o.batch_size = batch;
      Engine engine(make_doc(), o);
      auto st = engine.InstallModel(m.build(engine.summary()));
      EXPECT_TRUE(st.ok()) << m.name << ": " << st.ToString();
      if (!st.ok()) continue;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const std::string& q = queries[qi];
        std::string where = std::string(m.name) + " batch=" +
                            std::to_string(batch) + " query: " + q;
        auto run = engine.Run(q);
        if (!MustRewrite(must_rewrite, m.name, qi)) {
          // The model has no equivalent rewriting for this pattern; that
          // must surface as NotFound, never as an answer.
          EXPECT_FALSE(run.ok())
              << where << ": rewrites now; list it in the table";
          if (!run.ok()) {
            EXPECT_EQ(run.status().code(), StatusCode::kNotFound) << where;
          }
          continue;
        }
        ASSERT_TRUE(run.ok()) << where << ": " << run.status().ToString();
        // End-to-end correctness vs the direct interpreter, in every cell.
        EXPECT_EQ(*run, DirectResult(q, engine.document())) << where;
      }
    }
  }
}

// The engine corpus: three documents and the texts every grid runs on them.
Document BibDoc() {
  auto d = Document::Parse(kBib);
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

const std::vector<std::string> kBibQueries = {
    "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>",
    "for $x in doc(\"bib\")//book where $x/year = \"1999\" "
    "return <a>{$x/author/text()}</a>",
    "for $x in doc(\"bib\")//phdthesis return <t>{$x/title/text()}</t>",
};

Document DblpDoc() {
  DblpOptions o;
  o.records = 80;
  return GenerateDblp(o);
}

const std::vector<std::string> kDblpQueries = {
    "for $x in doc(\"dblp\")//article return <t>{$x/title/text()}</t>",
    "for $x in doc(\"dblp\")//inproceedings where $x/year = \"2000\" "
    "return <a>{$x/author/text()}</a>",
};

Document XMarkDoc() { return GenerateXMark(XMarkScale(0.02)); }

const std::vector<std::string> kXMarkQueries = {
    "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>",
    "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
    "return <p>{$x/price/text()}</p>",
    // A value formula on a node the rewriter must reach by navigation:
    // the plan has to apply the selection the pattern claims.
    "for $x in doc(\"x\")//person/name where $x = \"Smith\" return $x",
};

TEST(EngineDifferentialTest, BibCorpusAcrossAllModels) {
  // The partitioned native stores answer the whole corpus.
  CheckDifferential(BibDoc, kBibQueries,
                    {{"tag_partitioned", {0, 1, 2}},
                     {"path_partitioned", {0, 1, 2}}});
}

TEST(EngineDifferentialTest, DblpCorpusAcrossAllModels) {
  CheckDifferential(DblpDoc, kDblpQueries,
                    {{"structural_id", {0, 1}},
                     {"tag_partitioned", {0, 1}},
                     {"path_partitioned", {0, 1}}});
}

TEST(EngineDifferentialTest, XMarkCorpusAcrossAllModels) {
  CheckDifferential(XMarkDoc, kXMarkQueries,
                    {{"edge", {2}},
                     {"node_table", {2}},
                     {"structural_id", {0, 2}},
                     {"tag_partitioned", {0, 1, 2}},
                     {"path_partitioned", {0, 1, 2}}});
}

// Physical data independence reaches the plan: a leaf's order is declared
// by its view's definition, never proved from the data, so both backends
// compile the same physical plan for every corpus text under every storage
// model, once a columnar scan reads as a scan. The probe document's prices
// happen to ascend; a plan that read that off the stored Val column would
// drop the query's Sort_phi on one backend only.
TEST(EngineBackendPlanTest, PhysicalPlansAgreeAcrossBackends) {
  struct Case {
    std::function<Document()> make;
    std::vector<std::string> queries;
  };
  const std::vector<Case> corpus = {
      {BibDoc, kBibQueries},
      {DblpDoc, kDblpQueries},
      {XMarkDoc, kXMarkQueries},
      {[] {
         auto d = Document::Parse(
             "<site><closed_auction><price>10</price></closed_auction>"
             "<closed_auction><price>20</price></closed_auction>"
             "<closed_auction><price>30</price></closed_auction></site>");
         EXPECT_TRUE(d.ok());
         return std::move(d).value();
       },
       {"for $x in doc(\"x\")//closed_auction/price where $x > 5 "
        "return <p>{$x/text()}</p>"}},
  };
  std::vector<ModelSpec> models = AllModels();
  models.push_back({"inlined", [](const PathSummary& s) {
                      return InlinedShreddingModel(s);
                    }});
  auto plan = [](Engine& e, const std::string& q) {
    auto ex = e.Explain(q);
    if (!ex.ok()) return "error " + ex.status().ToString();
    std::string out = ex->physical;
    const std::string columnar = "ColumnarScan_phi";
    for (size_t at = out.find(columnar); at != std::string::npos;
         at = out.find(columnar, at)) {
      out.replace(at, columnar.size(), "Scan_phi");
    }
    return out;
  };
  for (const Case& c : corpus) {
    for (const ModelSpec& m : models) {
      Engine pointer(c.make());
      Engine::Options o;
      o.backend = Engine::Options::Backend::kColumnar;
      Engine columnar(c.make(), o);
      ASSERT_TRUE(pointer.InstallModel(m.build(pointer.summary())).ok());
      ASSERT_TRUE(columnar.InstallModel(m.build(columnar.summary())).ok());
      for (const std::string& q : c.queries) {
        EXPECT_EQ(plan(pointer, q), plan(columnar, q)) << m.name << ": " << q;
      }
    }
  }
}

// Regression test for a rewriter divergence over StructuralIdModel: the
// all-wildcard sid stores admitted a candidate pattern with no tag
// restriction at all, and the equivalence check wrongly accepted it because
// canonical-model enumeration dropped every embedding whose *optional*
// subtree (the navigated name node) had no summary placement — elements
// without name descendants were invisible to the containment check, so
// e.g. an open_auction leaked into //people/person as an empty <p></p>.
// Fixed twofold: the canonical model/satisfiability/annotation enumerators
// map unembeddable optional subtrees to ⊥ instead of abandoning the
// embedding (src/containment/), and the rewriter compensates unenforced
// query label restrictions onto stored tag columns (CompensateTags in
// src/rewrite/rewriter.cc), which is what makes a correct sid_main-based
// rewriting exist for this query.
TEST(EngineKnownDivergence, StructuralIdModelDropsTagRestriction) {
  // Smallest XMark instance the generator emits; the person records carry
  // name children, and other entities (items, auctions) carry name-tagged
  // descendants too — those leak once the person restriction is dropped.
  Engine engine(GenerateXMark(XMarkScale(0.02)));
  ASSERT_TRUE(engine.InstallModel(StructuralIdModel()).ok());
  const std::string q =
      "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>";
  auto run = engine.Run(q);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Direct interpretation returns only the person names; the rewritten
  // plan surfaces extra name-tagged nodes.
  EXPECT_EQ(*run, DirectResult(q, engine.document()));
}

// A view whose ancestor node stores Dewey ids ('p') over a child that
// stores (pre, post, depth) ids ('s'). Its extent used to come out empty:
// the view's own structural join compared a Dewey id with a structural id,
// and ids of different kinds never contain one another. View extents now
// join on (pre, post, depth) ids whatever the declared kind, so the served
// answer matches the interpreter — as it does for the all-'s' twin.
TEST(EngineDeweyViewTest, DeweyAncestorViewAnswersLikeTheInterpreter) {
  const std::string shop =
      "<site><regions><europe>"
      "<item><name>bike</name><description><parlist><listitem>"
      "<keyword>fast</keyword></listitem></parlist></description></item>"
      "<item><name>car</name><description><parlist><listitem>"
      "<keyword>red</keyword></listitem></parlist></description></item>"
      "</europe></regions></site>";
  const std::string q =
      "for $x in doc(\"x\")//description//keyword "
      "return <k>{$x/text()}</k>";
  for (const char* kind : {"p", "s"}) {
    auto d = Document::Parse(shop);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    Engine engine(std::move(d).value());
    auto xam = ParseXam(std::string("xam\nnode e1 label=description id=") +
                        kind +
                        "\nnode e2 label=keyword id=s val\n"
                        "edge top // j e1\nedge e1 // j e2\n");
    ASSERT_TRUE(xam.ok()) << xam.status().ToString();
    ASSERT_TRUE(
        engine.InstallModel({{"desc_kw", std::move(xam).value()}}).ok());
    auto run = engine.Run(q);
    ASSERT_TRUE(run.ok()) << kind << ": " << run.status().ToString();
    EXPECT_EQ(*run, DirectResult(q, engine.document())) << kind;
    EXPECT_EQ(*run, "<k>fast</k><k>red</k>") << kind;
  }
}

// A value index answers a numeric literal as the interpreter does: stored
// values are strings, and "2003" equals 2003 under the engine's coercing
// equality. The index probe only narrows the rows; equality decides.
TEST(EngineIndexTest, NumericLiteralProbesAValueIndex) {
  DblpOptions d;
  d.records = 200;
  Engine engine(GenerateDblp(d));
  std::vector<NamedXam> model = TagPartitionedModel(engine.summary());
  model.push_back(ValueIndex("article", {"year"}));
  ASSERT_TRUE(engine.InstallModel(std::move(model)).ok());
  for (const char* literal : {"2003", "\"2003\""}) {
    const std::string q = std::string("for $x in //article[year = ") +
                          literal + "] return <t>{$x/title/text()}</t>";
    auto plan = engine.Explain(q);
    ASSERT_TRUE(plan.ok()) << q << ": " << plan.status().ToString();
    EXPECT_NE(plan->physical.find("IndexScan_phi"), std::string::npos)
        << q << "\n" << plan->physical;
    auto run = engine.Run(q);
    ASSERT_TRUE(run.ok()) << q << ": " << run.status().ToString();
    const std::string direct = DirectResult(q, engine.document());
    EXPECT_FALSE(direct.empty()) << q;
    EXPECT_EQ(*run, direct) << q;
  }
}

// The engine builds its rewriter once per catalog, so every InstallModel
// must rebuild it: a query only the old model answers stops rewriting, and
// the new model's queries match the interpreter.
TEST(EngineRewriterTest, FollowsEachInstalledModel) {
  Engine engine(GenerateXMark(XMarkScale(0.02)));
  // Rewrites over tag-partitioned storage only (see the XMark corpus table).
  const std::string tag_only =
      "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
      "return <p>{$x/price/text()}</p>";
  const std::string edge_query =
      "for $x in doc(\"x\")//person/name where $x = \"Smith\" return $x";
  ASSERT_TRUE(engine.InstallModel(TagPartitionedModel(engine.summary())).ok());
  auto before = engine.Run(tag_only);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(*before, DirectResult(tag_only, engine.document()));

  ASSERT_TRUE(engine.InstallModel(EdgeModel()).ok());
  auto after = engine.Run(tag_only);
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound)
      << after.status().ToString();
  auto edge = engine.Run(edge_query);
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(*edge, DirectResult(edge_query, engine.document()));
}

// A failed install keeps the views added before the failure, and the
// rewriter is rebuilt over them too: queries over the first `v` run.
TEST(EngineRewriterTest, FailedInstallStillRebuildsTheRewriter) {
  auto d = Document::Parse(
      "<site><item><description><keyword>fast</keyword></description></item>"
      "<item><description><keyword>red</keyword></description></item></site>");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Engine engine(std::move(d).value());
  auto v = ParseXam(
      "xam\nnode e1 label=description id=s\nnode e2 label=keyword id=s val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  Status st = engine.InstallModel({{"v", *v}, {"v", *v}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  ASSERT_EQ(engine.catalog().views().size(), 1u);
  const std::string q =
      "for $x in doc(\"x\")//description//keyword return <k>{$x/text()}</k>";
  auto run = engine.Run(q);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(*run, DirectResult(q, engine.document()));
  EXPECT_EQ(*run, "<k>fast</k><k>red</k>");
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = Document::Parse(kBib);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    engine_ = std::make_unique<Engine>(std::move(d).value());
    auto st = engine_->InstallModel(TagPartitionedModel(engine_->summary()));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineTest, ExplainAnalyzeReportsPerOperatorMetrics) {
  const std::string q =
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>";
  auto ex = engine_->ExplainAnalyze(q);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_EQ(ex->result, DirectResult(q, engine_->document()));
  // The analyzed plan carries runtime counters for every operator.
  EXPECT_NE(ex->physical.find("tuples="), std::string::npos) << ex->physical;
  EXPECT_NE(ex->physical.find("batches="), std::string::npos) << ex->physical;
  EXPECT_FALSE(engine_->LastQueryMetrics().empty());
  EXPECT_GT(engine_->LastQueryTotalTuples(), 0);
  // The logical plan is the rewriter's combined plan.
  EXPECT_NE(ex->logical.find("Retype"), std::string::npos) << ex->logical;
}

TEST_F(EngineTest, MetricsSlotsDoNotGrowAcrossQueries) {
  const std::string q =
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>";
  ASSERT_TRUE(engine_->Run(q).ok());
  size_t slots = engine_->LastQueryMetrics().size();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine_->Run(q).ok());
  EXPECT_EQ(engine_->LastQueryMetrics().size(), slots);
}

TEST_F(EngineTest, ConstantQueryRunsThroughUnitPlan) {
  // A query touching no data routes through the same plan builder: the
  // template runs over the unit relation.
  const std::string q = "<greeting><hello></hello></greeting>";
  auto ex = engine_->ExplainAnalyze(q);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_EQ(ex->result, DirectResult(q, engine_->document()));
  EXPECT_NE(ex->logical.find("Unit"), std::string::npos) << ex->logical;
  EXPECT_NE(ex->physical.find("Unit_phi"), std::string::npos) << ex->physical;
}

// ---------------------------------------------------------------------------
// Plan cache (DESIGN.md §16): Run, Explain and ExplainAnalyze take their
// prepared query from one cache keyed by the exact query text. A hit must
// answer and plan exactly as a cold Prepare does; InstallModel and
// SetOptions empty the cache; only successes are cached.
// ---------------------------------------------------------------------------

// Every engine-corpus text on every storage model and both backends: the
// second Run (a hit) is byte-identical to the first (a miss), and the hit's
// logical plan equals a fresh engine's cold plan for the same text.
TEST(EnginePlanCache, HitAnswersAndPlansLikeAColdEngine) {
  struct Case {
    std::function<Document()> make;
    std::vector<std::string> queries;
  };
  const std::vector<Case> corpus = {{BibDoc, kBibQueries},
                                    {DblpDoc, kDblpQueries},
                                    {XMarkDoc, kXMarkQueries}};
  std::vector<ModelSpec> models = AllModels();
  models.push_back({"inlined", [](const PathSummary& s) {
                      return InlinedShreddingModel(s);
                    }});
  for (Engine::Options::Backend backend :
       {Engine::Options::Backend::kPointer,
        Engine::Options::Backend::kColumnar}) {
    Engine::Options o;
    o.backend = backend;
    for (const Case& c : corpus) {
      for (const ModelSpec& m : models) {
        Engine warm(c.make(), o);
        Engine cold(c.make(), o);
        ASSERT_TRUE(warm.InstallModel(m.build(warm.summary())).ok());
        ASSERT_TRUE(cold.InstallModel(m.build(cold.summary())).ok());
        for (const std::string& q : c.queries) {
          const std::string where = std::string(m.name) + " columnar=" +
                                    std::to_string(o.backend ==
                                        Engine::Options::Backend::kColumnar) +
                                    " query: " + q;
          const int64_t hits = warm.plan_cache_hits();
          auto first = warm.Run(q);
          auto second = warm.Run(q);
          ASSERT_EQ(first.ok(), second.ok()) << where;
          if (!first.ok()) {
            // Failures are not cached: the second Run missed as well.
            EXPECT_EQ(first.status().ToString(), second.status().ToString())
                << where;
            EXPECT_EQ(warm.plan_cache_hits(), hits) << where;
            continue;
          }
          EXPECT_EQ(*first, *second) << where;
          EXPECT_EQ(warm.plan_cache_hits(), hits + 1) << where;
          auto hit = warm.Explain(q);
          auto fresh = cold.Explain(q);
          ASSERT_TRUE(hit.ok()) << where << ": " << hit.status().ToString();
          ASSERT_TRUE(fresh.ok()) << where << ": "
                                  << fresh.status().ToString();
          EXPECT_EQ(hit->logical, fresh->logical) << where;
          EXPECT_EQ(hit->physical, fresh->physical) << where;
        }
        EXPECT_EQ(cold.plan_cache_hits(), 0) << m.name;
      }
    }
  }
}

// InstallModel empties the cache: after switching from tag-partitioned to
// path-partitioned storage, the same text plans over the new model's views
// and answers as before.
TEST(EnginePlanCache, InstallModelEmptiesTheCache) {
  Engine engine(XMarkDoc());
  const std::string q = kXMarkQueries[1];
  ASSERT_TRUE(engine.InstallModel(TagPartitionedModel(engine.summary())).ok());
  auto tag_answer = engine.Run(q);
  ASSERT_TRUE(tag_answer.ok()) << tag_answer.status().ToString();
  auto tag_plan = engine.Explain(q);
  ASSERT_TRUE(tag_plan.ok()) << tag_plan.status().ToString();
  EXPECT_EQ(engine.plan_cache_entries(), 1);

  ASSERT_TRUE(
      engine.InstallModel(PathPartitionedModel(engine.summary())).ok());
  EXPECT_EQ(engine.plan_cache_entries(), 0);
  auto path_plan = engine.Explain(q);
  ASSERT_TRUE(path_plan.ok()) << path_plan.status().ToString();
  Engine fresh(XMarkDoc());
  ASSERT_TRUE(fresh.InstallModel(PathPartitionedModel(fresh.summary())).ok());
  auto fresh_plan = fresh.Explain(q);
  ASSERT_TRUE(fresh_plan.ok()) << fresh_plan.status().ToString();
  EXPECT_EQ(path_plan->logical, fresh_plan->logical);
  EXPECT_NE(path_plan->logical, tag_plan->logical);

  auto path_answer = engine.Run(q);
  ASSERT_TRUE(path_answer.ok()) << path_answer.status().ToString();
  EXPECT_EQ(*path_answer, *tag_answer);
}

// SetOptions empties the cache: the next Run of a cached text misses.
TEST(EnginePlanCache, SetOptionsEmptiesTheCache) {
  Engine engine(BibDoc());
  ASSERT_TRUE(engine.InstallModel(TagPartitionedModel(engine.summary())).ok());
  const std::string q = kBibQueries[0];
  ASSERT_TRUE(engine.Run(q).ok());
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1);
  EXPECT_EQ(engine.plan_cache_hits(), 1);
  engine.SetOptions(engine.options());
  EXPECT_EQ(engine.plan_cache_entries(), 0);
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 2);
  EXPECT_EQ(engine.plan_cache_hits(), 1);
}

// A failed rewrite is never cached: the text fails, and misses, each time.
TEST(EnginePlanCache, FailuresAreNotCached) {
  Engine engine(XMarkDoc());
  ASSERT_TRUE(engine.InstallModel(EdgeModel()).ok());
  const std::string q = kXMarkQueries[1];  // no rewriting over edge storage
  for (int i = 0; i < 2; ++i) {
    auto run = engine.Run(q);
    EXPECT_EQ(run.status().code(), StatusCode::kNotFound)
        << run.status().ToString();
  }
  EXPECT_EQ(engine.plan_cache_misses(), 2);
  EXPECT_EQ(engine.plan_cache_hits(), 0);
  EXPECT_EQ(engine.plan_cache_entries(), 0);
}

// The key is the exact text: a string literal and a number that print alike
// are two queries, and two entries.
TEST(EnginePlanCache, KeyIsTheExactText) {
  auto d = Document::Parse("<r><p>12</p><p>12.0</p><p>7</p></r>");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Engine engine(std::move(d).value());
  ASSERT_TRUE(engine.InstallModel(TagPartitionedModel(engine.summary())).ok());
  std::vector<std::string> answers;
  for (const char* q : {"//p[text()=\"12\"]", "//p[text()=12]"}) {
    auto run = engine.Run(q);
    ASSERT_TRUE(run.ok()) << q << ": " << run.status().ToString();
    EXPECT_EQ(*run, DirectResult(q, engine.document())) << q;
    answers.push_back(*run);
  }
  EXPECT_NE(answers[0], answers[1]) << answers[0];
  EXPECT_EQ(engine.plan_cache_entries(), 2);
  EXPECT_EQ(engine.plan_cache_misses(), 2);
  EXPECT_EQ(engine.plan_cache_hits(), 0);
}

// The cache holds at most kPlanCacheCapacity entries and evicts the least
// recently used text first.
TEST(EnginePlanCache, EvictsTheLeastRecentlyUsedText) {
  Engine engine(BibDoc());
  ASSERT_TRUE(engine.InstallModel(TagPartitionedModel(engine.summary())).ok());
  auto text = [](size_t i) {
    return "for $x in doc(\"bib\")//book where $x/year = \"" +
           std::to_string(1900 + i) + "\" return <t>{$x/title/text()}</t>";
  };
  constexpr size_t kExtra = 3;
  const size_t n = Engine::kPlanCacheCapacity + kExtra;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(engine.Run(text(i)).ok()) << text(i);
  }
  EXPECT_EQ(engine.plan_cache_entries(),
            static_cast<int64_t>(Engine::kPlanCacheCapacity));
  EXPECT_EQ(engine.plan_cache_misses(), static_cast<int64_t>(n));
  ASSERT_TRUE(engine.Run(text(n - 1)).ok());  // the newest still hits
  EXPECT_EQ(engine.plan_cache_hits(), 1);
  ASSERT_TRUE(engine.Run(text(0)).ok());  // the oldest was evicted
  EXPECT_EQ(engine.plan_cache_misses(), static_cast<int64_t>(n + 1));
  EXPECT_EQ(engine.plan_cache_entries(),
            static_cast<int64_t>(Engine::kPlanCacheCapacity));
}

// ---------------------------------------------------------------------------
// Resource governor (DESIGN.md §8): timeout, cross-thread cancellation, and
// memory-budget exhaustion each abort with the designated StatusCode and
// leave the engine fully usable — the very next query on the same Engine
// must succeed byte-identically, with the engine tracker back at zero.
// ---------------------------------------------------------------------------

class EngineGovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DblpOptions d;
    d.records = 80;
    engine_ = std::make_unique<Engine>(GenerateDblp(d));
    auto st = engine_->InstallModel(TagPartitionedModel(engine_->summary()));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  const std::string query_ =
      "for $x in doc(\"dblp\")//article return <t>{$x/title/text()}</t>";

  // Asserts the engine still answers `query_` byte-identically after an
  // aborted run, and that every budget charge was returned.
  void ExpectRecovered() {
    EXPECT_EQ(engine_->memory().used(), 0);
    auto again = engine_->Run(query_);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(*again, DirectResult(query_, engine_->document()));
    EXPECT_EQ(engine_->memory().used(), 0);
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineGovernorTest, TimeoutMidQueryReturnsDeadlineExceeded) {
  Engine::Options o = engine_->options();
  // Negative = deadline already expired: the first cooperative check trips,
  // deterministically, regardless of machine speed.
  o.timeout_ms = -1;
  engine_->SetOptions(o);
  auto r = engine_->Run(query_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();

  o.timeout_ms = 0;
  engine_->SetOptions(o);
  ExpectRecovered();
}

TEST_F(EngineGovernorTest, GenerousTimeoutDoesNotFire) {
  Engine::Options o = engine_->options();
  o.timeout_ms = 60'000;
  engine_->SetOptions(o);
  auto r = engine_->Run(query_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, DirectResult(query_, engine_->document()));
}

TEST_F(EngineGovernorTest, HugeTimeoutSaturatesInsteadOfOverflowing) {
  // now + timeout_ms * 10^6 overflows int64 for these budgets; the deadline
  // must saturate to one that never trips, not wrap into the past
  // (INT64_MAX) or to "no deadline" (10^13).
  for (int64_t ms : {std::numeric_limits<int64_t>::max(),
                     int64_t{10'000'000'000'000}}) {
    Engine::QueryOptions q;
    q.timeout_ms = ms;
    q.control = std::make_shared<QueryControl>();
    auto r = engine_->Run(query_, q);
    ASSERT_TRUE(r.ok()) << "timeout_ms=" << ms << ": " << r.status().ToString();
    EXPECT_EQ(*r, DirectResult(query_, engine_->document()));
    EXPECT_EQ(q.control->deadline_ns(), std::numeric_limits<int64_t>::max())
        << "timeout_ms=" << ms;
  }
}

TEST_F(EngineGovernorTest, CancelFromAnotherThreadReturnsCancelled) {
  // Deterministic mid-query cancellation without timing assumptions: the
  // installed control trips after a fixed number of cooperative checks,
  // exactly as an Engine::Cancel() racing mid-query would. batch_size=1
  // guarantees the plan performs far more checks than the trip point.
  auto control = std::make_shared<QueryControl>();
  control->CancelAfterChecks(20);
  Engine::Options o = engine_->options();
  o.batch_size = 1;
  o.control = control;
  engine_->SetOptions(o);
  auto r = engine_->Run(query_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
  EXPECT_GT(control->checks(), 0);

  o.control = nullptr;
  o.batch_size = TupleBatch::kDefaultCapacity;
  engine_->SetOptions(o);
  ExpectRecovered();
}

TEST_F(EngineGovernorTest, EngineCancelTripsInFlightControl) {
  // The public Cancel() surface: install an observable control, trip it via
  // Engine::Cancel() from another thread once the query is demonstrably
  // running (checks() > 0), and expect a clean kCancelled.
  auto control = std::make_shared<QueryControl>();
  Engine::Options o = engine_->options();
  o.batch_size = 1;
  o.control = control;
  engine_->SetOptions(o);
  std::thread canceller([&] {
    while (control->checks() == 0) std::this_thread::yield();
    engine_->Cancel();
  });
  auto r = engine_->Run(query_);
  canceller.join();
  // The query either finished before Cancel() landed (legal: cancellation
  // is cooperative) or aborted with kCancelled — never anything else.
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
  } else {
    EXPECT_EQ(*r, DirectResult(query_, engine_->document()));
  }

  o.control = nullptr;
  o.batch_size = TupleBatch::kDefaultCapacity;
  engine_->SetOptions(o);
  ExpectRecovered();
}

TEST_F(EngineGovernorTest, MemoryBudgetExhaustionReturnsResourceExhausted) {
  Engine::Options o = engine_->options();
  // Far below what the Sort_φ materialization of 80 dblp articles needs.
  o.memory_limit_bytes = 512;
  engine_->SetOptions(o);
  auto r = engine_->Run(query_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();

  o.memory_limit_bytes = 0;
  engine_->SetOptions(o);
  ExpectRecovered();
}

TEST_F(EngineGovernorTest, BudgetedQueryUnderLimitSucceedsAndReportsPeak) {
  Engine::Options o = engine_->options();
  o.memory_limit_bytes = int64_t{1} << 30;
  engine_->SetOptions(o);
  auto ex = engine_->ExplainAnalyze(query_);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_EQ(ex->result, DirectResult(query_, engine_->document()));
  // DescribeAnalyze surfaces per-operator peak bytes.
  EXPECT_NE(ex->physical.find("mem="), std::string::npos) << ex->physical;
  EXPECT_EQ(engine_->memory().used(), 0);
}

TEST_F(EngineGovernorTest, BudgetExhaustionLeavesConcurrentQueryUnaffected) {
  // Acceptance criterion: one query blowing its per-query budget must not
  // disturb a concurrent query on the same engine. The per-query budget is
  // engine-global configuration (read at BeginQuery, tracked per query), so
  // it is set once, before any thread starts: the article query materializes
  // far more than the budget in its Sort_φ buffer (kResourceExhausted) while
  // the constant query holds almost nothing and completes under the very
  // same limit, concurrently, on the same engine.
  const std::string light_query = "<greeting><hello></hello></greeting>";
  std::string light_expected = DirectResult(light_query, engine_->document());
  Engine::Options o = engine_->options();
  o.memory_limit_bytes = 4096;
  engine_->SetOptions(o);

  std::atomic<int> light_ok{0};
  std::atomic<int> light_failed{0};
  std::atomic<int> victim_exhausted{0};
  std::atomic<int> victim_other{0};
  std::thread light([&] {
    for (int i = 0; i < 20; ++i) {
      auto r = engine_->Run(light_query);
      if (r.ok() && *r == light_expected) {
        light_ok.fetch_add(1);
      } else {
        light_failed.fetch_add(1);
      }
    }
  });
  std::thread victim([&] {
    for (int i = 0; i < 5; ++i) {
      auto r = engine_->Run(query_);
      if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) {
        victim_exhausted.fetch_add(1);
      } else {
        victim_other.fetch_add(1);
      }
    }
  });
  light.join();
  victim.join();
  EXPECT_EQ(light_ok.load(), 20);
  EXPECT_EQ(light_failed.load(), 0);
  EXPECT_EQ(victim_exhausted.load(), 5);
  EXPECT_EQ(victim_other.load(), 0);

  o.memory_limit_bytes = 0;
  engine_->SetOptions(o);
  ExpectRecovered();
}

}  // namespace
}  // namespace uload
