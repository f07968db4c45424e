// End-to-end physical data independence: the same XQuery runs unchanged over
// widely different storage models — only the catalog (XAM set) changes —
// and always produces the direct interpreter's result (thesis Fig. 5.1).
#include <gtest/gtest.h>

#include <memory>

#include "engine/engine.h"
#include "workload/xmark.h"
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

class IntegrationTest : public ::testing::Test {
 protected:
  void Load(const char* xml) {
    auto d = Document::Parse(xml);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    engine_ = std::make_unique<Engine>(std::move(d).value());
  }
  void LoadXMark() {
    engine_ = std::make_unique<Engine>(GenerateXMark(XMarkScale(0.1)));
  }

  const PathSummary& summary() const { return engine_->summary(); }

  void InstallModel(std::vector<NamedXam> model) {
    auto st = engine_->InstallModel(std::move(model));
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // The physical-independence check: rewritten execution == direct result.
  void CheckQuery(const std::string& query) {
    auto ast = ParseQuery(query);
    ASSERT_TRUE(ast.ok()) << ast.status().ToString();
    auto direct = EvaluateQueryDirect(**ast, engine_->document());
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    auto result = engine_->Run(query);
    ASSERT_TRUE(result.ok()) << query << " -> " << result.status().ToString();
    EXPECT_EQ(*direct, *result) << "query: " << query;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(IntegrationTest, BibOverTagPartitionedStore) {
  Load(kBib);
  InstallModel(TagPartitionedModel(summary()));
  CheckQuery("for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>");
  CheckQuery(
      "for $x in doc(\"bib\")//book where $x/year = \"1999\" "
      "return <a>{$x/author/text()}</a>");
}

TEST_F(IntegrationTest, BibOverPathPartitionedStore) {
  Load(kBib);
  InstallModel(PathPartitionedModel(summary()));
  CheckQuery("for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>");
  CheckQuery(
      "for $x in doc(\"bib\")//phdthesis return <t>{$x/title/text()}</t>");
}

TEST_F(IntegrationTest, SameQueryAcrossStores) {
  Load(kBib);
  const std::string q =
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>";
  auto ast = ParseQuery(q);
  ASSERT_TRUE(ast.ok());
  auto direct = EvaluateQueryDirect(**ast, engine_->document());
  ASSERT_TRUE(direct.ok());

  std::vector<std::vector<NamedXam>> models;
  models.push_back(TagPartitionedModel(summary()));
  models.push_back(PathPartitionedModel(summary()));
  for (auto& model : models) {
    InstallModel(std::move(model));
    auto result = engine_->Run(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*direct, *result);
  }
}

TEST_F(IntegrationTest, CustomViewBeatsGenericStore) {
  Load(kBib);
  // A tailored view plus the generic store: the rewriter must pick the
  // cheaper single-view plan for the matching query.
  std::vector<NamedXam> model = TagPartitionedModel(summary());
  model.push_back(TIndex("book", "title"));
  InstallModel(std::move(model));
  auto p = engine_->Prepare(
      "for $x in doc(\"b\")//book return <t>{$x/title/text()}</t>");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->rewrite.pattern_rewritings.size(), 1u);
  // Prefer plans scanning fewer views.
  EXPECT_LE(p->rewrite.pattern_rewritings[0].views_used.size(), 2u);
}

TEST_F(IntegrationTest, XMarkQueriesOverTagStore) {
  LoadXMark();
  InstallModel(TagPartitionedModel(summary()));
  CheckQuery(
      "for $x in doc(\"x\")//people/person return "
      "<p>{$x/name/text()}</p>");
  CheckQuery(
      "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
      "return <p>{$x/price/text()}</p>");
}

TEST_F(IntegrationTest, MissingViewsSurfaceNotFound) {
  Load(kBib);
  InstallModel({});  // empty catalog
  auto r = engine_->Prepare("doc(\"b\")//book/title");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace uload
