// Parser, interpreter, translation and pattern extraction (thesis Ch. 3).
// The key property: alg(q) evaluated through XAM semantics produces exactly
// the same serialized output as the direct navigational interpreter.
#include <gtest/gtest.h>

#include "xquery/interp.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace uload {
namespace {

constexpr const char* kBib =
    "<bib>"
    "<book year=\"1999\">"
    "<title>Data on the Web</title>"
    "<author>Abiteboul</author>"
    "<author>Suciu</author>"
    "</book>"
    "<book year=\"2002\">"
    "<title>The Syntactic Web</title>"
    "<author>Tom Lerners-Bee</author>"
    "</book>"
    "<phdthesis year=\"2004\">"
    "<title>The Web: next generation</title>"
    "<author>Jim Smith</author>"
    "</phdthesis>"
    "</bib>";

// The Fig. 3.1-shaped document: a tree exercising nested blocks, optional
// branches and value predicates.
constexpr const char* kAbc =
    "<a>"
    "<x1><c>c1</c><c>c2</c></x1>"
    "<x2></x2>"
    "<b>"
    "<e>e1</e>"
    "<d><f><g>5</g><h>h1</h></f><f><g>7</g><h>h2</h></f></d>"
    "</b>"
    "<b>"
    "<e>e2</e>"
    "</b>"
    "<b>"
    "<d><f><g>5</g><h>h3</h></f></d>"
    "</b>"
    "</a>";

class XQueryTest : public ::testing::Test {
 protected:
  Document Parse(const char* xml) {
    auto d = Document::Parse(xml);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return std::move(d).value();
  }

  // Asserts interpreter(q) == EvaluateTranslated(alg(q)) and returns it.
  std::string CheckAgree(const std::string& query, const Document& doc) {
    auto ast = ParseQuery(query);
    EXPECT_TRUE(ast.ok()) << query << " -> " << ast.status().ToString();
    if (!ast.ok()) return "";
    auto direct = EvaluateQueryDirect(**ast, doc);
    EXPECT_TRUE(direct.ok()) << direct.status().ToString();
    auto tr = TranslateQuery(**ast);
    EXPECT_TRUE(tr.ok()) << query << " -> " << tr.status().ToString();
    if (!tr.ok()) return "";
    auto algv = EvaluateTranslated(*tr, doc);
    EXPECT_TRUE(algv.ok()) << query << " -> " << algv.status().ToString();
    if (!direct.ok() || !algv.ok()) return "";
    EXPECT_EQ(*direct, *algv) << "query: " << query << "\ntranslation:\n"
                              << tr->ToString();
    return *direct;
  }

  // The query patterns and compensations of `query` (§3.3.3).
  static Result<Translation> Translate(std::string_view query) {
    ULOAD_ASSIGN_OR_RETURN(ExprPtr ast, ParseQuery(query));
    return TranslateQuery(*ast);
  }
};

TEST_F(XQueryTest, ParseSimplePath) {
  auto q = ParseQuery("doc(\"bib.xml\")//book/title");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->kind, Expr::Kind::kPath);
  EXPECT_EQ((*q)->path.steps.size(), 2u);
  EXPECT_TRUE((*q)->path.steps[0].descendant);
}

TEST_F(XQueryTest, ParseFlwr) {
  auto q = ParseQuery(
      "for $x in doc(\"bib.xml\")//book "
      "where $x/year = \"1999\" and $x/title = \"Data on the Web\" "
      "return $x/author");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->kind, Expr::Kind::kFlwr);
  EXPECT_EQ((*q)->flwr.bindings.size(), 1u);
  EXPECT_EQ((*q)->flwr.where.size(), 2u);
}

TEST_F(XQueryTest, ParseNestedConstructor) {
  auto q = ParseQuery(
      "for $x in doc(\"x\")//item return "
      "<res_item>{$x/name}, {for $y in $x//description return "
      "<res_desc>{$y//listitem}</res_desc>}</res_item>");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
}

TEST_F(XQueryTest, ParseErrors) {
  EXPECT_FALSE(ParseQuery("for $x in").ok());
  EXPECT_FALSE(ParseQuery("//a[").ok());
  EXPECT_FALSE(ParseQuery("for $x doc(\"d\")//a return $x").ok());
  EXPECT_FALSE(ParseQuery("<a>{//b}</c>").ok());
}

TEST_F(XQueryTest, DirectInterpPath) {
  Document doc = Parse(kBib);
  auto q = ParseQuery("doc(\"bib.xml\")//book/title");
  ASSERT_TRUE(q.ok());
  auto r = EvaluateQueryDirect(**q, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r,
            "<title>Data on the Web</title>"
            "<title>The Syntactic Web</title>");
}

TEST_F(XQueryTest, AgreePlainPaths) {
  Document doc = Parse(kBib);
  CheckAgree("doc(\"bib.xml\")//book/title", doc);
  CheckAgree("doc(\"bib.xml\")/bib/book/author", doc);
  CheckAgree("doc(\"bib.xml\")//author", doc);
  CheckAgree("doc(\"bib.xml\")//*/title/text()", doc);
  CheckAgree("doc(\"bib.xml\")//book[@year=\"1999\"]/title", doc);
  CheckAgree("doc(\"bib.xml\")//book[@year]/title", doc);
  CheckAgree("doc(\"bib.xml\")//book[author=\"Suciu\"]/title", doc);
}

TEST_F(XQueryTest, AgreeSimpleFlwr) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree(
      "for $x in doc(\"b\")//book where $x/@year = \"1999\" "
      "return <info>{$x/author}{$x/title}</info>",
      doc);
  EXPECT_EQ(r,
            "<info><author>Abiteboul</author><author>Suciu</author>"
            "<title>Data on the Web</title></info>");
}

TEST_F(XQueryTest, AgreeFlwrAllBooks) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree(
      "for $x in doc(\"b\")//book return <info>{$x/title/text()}</info>",
      doc);
  EXPECT_EQ(r, "<info>Data on the Web</info><info>The Syntactic Web</info>");
}

TEST_F(XQueryTest, AgreeWhereExistence) {
  Document doc = Parse(kBib);
  CheckAgree("for $x in doc(\"b\")//* where $x/@year return $x/title", doc);
}

TEST_F(XQueryTest, AgreeNumericComparison) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree(
      "for $x in doc(\"b\")//book where $x/@year > 2000 "
      "return $x/title/text()",
      doc);
  EXPECT_EQ(r, "The Syntactic Web");
}

TEST_F(XQueryTest, AgreeChainedVariables) {
  Document doc = Parse(kBib);
  CheckAgree(
      "for $x in doc(\"b\")//book, $y in $x/author "
      "return <pair>{$x/title/text()}{$y/text()}</pair>",
      doc);
}

TEST_F(XQueryTest, AgreeUnrelatedVariables) {
  Document doc = Parse(kBib);
  // Cartesian product of books and theses.
  CheckAgree(
      "for $x in doc(\"b\")//book, $y in doc(\"b\")//phdthesis "
      "return <p>{$x/title/text()}{$y/title/text()}</p>",
      doc);
}

TEST_F(XQueryTest, AgreeValueJoin) {
  Document doc = Parse(kBib);
  // Books and theses from the same year (none here) and <= (some).
  CheckAgree(
      "for $x in doc(\"b\")//book, $y in doc(\"b\")//phdthesis "
      "where $x/@year = $y/@year return <p>{$x/title}</p>",
      doc);
  CheckAgree(
      "for $x in doc(\"b\")//book, $y in doc(\"b\")//phdthesis "
      "where $x/@year < $y/@year return <p>{$x/title/text()}</p>",
      doc);
}

TEST_F(XQueryTest, AgreeTopLevelConstructor) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree("<all>{doc(\"b\")//author}</all>", doc);
  EXPECT_EQ(r.substr(0, 5), "<all>");
  // Exactly one <all> element.
  EXPECT_EQ(r.find("<all>", 1), std::string::npos);
}

TEST_F(XQueryTest, AgreeNestedBlocks) {
  Document doc = Parse(kAbc);
  // Nested FLWR grouped inside the outer constructor.
  std::string r = CheckAgree(
      "for $y in doc(\"d\")//b return "
      "<res>{$y/e}{for $z in $y//d return <inner>{$z//h}</inner>}</res>",
      doc);
  // Three <res> (one per b); first has e1 + inner with h1 h2; second e2 and
  // no inner; third inner with h3.
  EXPECT_EQ(r,
            "<res><e>e1</e><inner><h>h1</h><h>h2</h></inner></res>"
            "<res><e>e2</e></res>"
            "<res><inner><h>h3</h></inner></res>");
}

TEST_F(XQueryTest, AgreeNestedBlockWithWhere) {
  Document doc = Parse(kAbc);
  std::string r = CheckAgree(
      "for $y in doc(\"d\")//b return "
      "<res>{for $z in $y//f where $z/g = 5 return <k>{$z/h}</k>}</res>",
      doc);
  EXPECT_EQ(r,
            "<res><k><h>h1</h></k></res>"
            "<res></res>"
            "<res><k><h>h3</h></k></res>");
}

TEST_F(XQueryTest, AgreeFig31Shape) {
  Document doc = Parse(kAbc);
  // The motivating query shape of §3.1: two unrelated variables, optional
  // return paths, a nested block spanning two more variables.
  CheckAgree(
      "for $x in doc(\"d\")/a/*, $y in doc(\"d\")//b return "
      "<res1>{$x//c,"
      "<res2>{$y//e,"
      "for $z in $y//d, $t in $z//f where $t/g = 5 "
      "return <res3>{$t//h}</res3>}</res2>}</res1>",
      doc);
}

TEST_F(XQueryTest, Fig31PatternShapes) {
  auto ep = Translate(
      "for $x in doc(\"d\")/a/*, $y in doc(\"d\")//b return "
      "<res1>{$x//c,"
      "<res2>{$y//e,"
      "for $z in $y//d, $t in $z//f where $t/g = 5 "
      "return <res3>{$t//h}</res3>}</res2>}</res1>");
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  // Two maximal patterns (V10 for $x, V11 for $y) — the nested block did NOT
  // open a new pattern: patterns span nested FLWR blocks.
  ASSERT_EQ(ep->patterns.size(), 2u);
  const Xam& v10 = ep->patterns[0];
  const Xam& v11 = ep->patterns[1];
  // V10: top -/ a -/ * (ID) -//no c (Cont). 4 nodes incl. top.
  EXPECT_EQ(v10.size(), 4);
  EXPECT_TRUE(v10.HasOptionalEdges());
  // V11: top -// b (ID) -//no e(Cont), -//no d (ID) -// f (ID) -/s g[=5]
  // -//no h (Cont): 7 nodes incl. top.
  EXPECT_EQ(v11.size(), 7);
  EXPECT_TRUE(v11.HasNestedEdges());
  // The where predicate was pushed into the pattern as a decorated node.
  EXPECT_TRUE(v11.IsDecorated());
}

TEST_F(XQueryTest, CompensationRecordedForOuterRefInNestedBlock) {
  // e is emitted inside the d-loop but belongs to $y: the pattern cannot
  // express the d -> e dependency; a compensating selection is recorded.
  auto ep = Translate(
      "for $y in doc(\"d\")//b return "
      "<res1>{for $z in $y//d return <res2>{$y//e}</res2>}</res1>");
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  ASSERT_EQ(ep->patterns.size(), 1u);
  ASSERT_EQ(ep->compensations.size(), 1u);
  std::string comp = ep->compensations[0]->ToString();
  EXPECT_NE(comp.find("is not null"), std::string::npos);
  EXPECT_NE(comp.find("is null"), std::string::npos);
}

TEST_F(XQueryTest, AgreeOuterRefInNestedBlock) {
  Document doc = Parse(kAbc);
  std::string r = CheckAgree(
      "for $y in doc(\"d\")//b return "
      "<res1>{for $z in $y//d return <res2>{$y/e}</res2>}</res1>",
      doc);
  EXPECT_EQ(r,
            "<res1><res2><e>e1</e></res2></res1>"
            "<res1></res1>"
            "<res1><res2></res2></res1>");
}

TEST_F(XQueryTest, AgreeContains) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree(
      "for $x in doc(\"b\")//book/title where $x contains \"Web\" "
      "return $x/text()",
      doc);
  EXPECT_EQ(r, "Data on the WebThe Syntactic Web");
}

TEST_F(XQueryTest, PatternsAreMaximal) {
  // A chained query stays in ONE pattern even across a nested block.
  auto ep = Translate(
      "for $x in doc(\"d\")//b return "
      "<r>{for $z in $x//d return <s>{$z//h}</s>}</r>");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->patterns.size(), 1u);
  // Unrelated roots split patterns.
  auto ep2 = Translate(
      "for $x in doc(\"d\")//b, $y in doc(\"d\")//a return <r></r>");
  ASSERT_TRUE(ep2.ok());
  EXPECT_EQ(ep2->patterns.size(), 2u);
}

TEST_F(XQueryTest, AgreeEmptyResults) {
  Document doc = Parse(kBib);
  EXPECT_EQ(CheckAgree("doc(\"b\")//nonexistent", doc), "");
  EXPECT_EQ(CheckAgree(
                "for $x in doc(\"b\")//book where $x/@year = \"1800\" "
                "return $x/title",
                doc),
            "");
}

TEST_F(XQueryTest, AgreeAttributeOutput) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree(
      "for $x in doc(\"b\")//book return <y>{$x/@year}</y>", doc);
  // Attribute value emitted (serialized as its value through Val storage).
  EXPECT_NE(r.find("1999"), std::string::npos);
}

}  // namespace
}  // namespace uload

namespace uload {
namespace {

class LetClauseTest : public XQueryTest {};

TEST_F(LetClauseTest, LetAliasInReturnAndWhere) {
  Document doc = Parse(kBib);
  std::string r = CheckAgree(
      "for $x in doc(\"b\")//book let $t := $x/title "
      "where $t = \"Data on the Web\" return <r>{$t/text()}</r>",
      doc);
  EXPECT_EQ(r, "<r>Data on the Web</r>");
}

TEST_F(LetClauseTest, LetChaining) {
  Document doc = Parse(kBib);
  CheckAgree(
      "for $x in doc(\"b\")//book let $t := $x/title, $v := $t "
      "return <r>{$v/text()}</r>",
      doc);
}

TEST_F(LetClauseTest, LetInForBinding) {
  Document doc = Parse(kAbc);
  CheckAgree(
      "for $y in doc(\"d\")//b let $d := $y//d return "
      "<r>{for $f in $d//f where $f/g = 5 return <k>{$f/h}</k>}</r>",
      doc);
}

TEST_F(LetClauseTest, LenientEqualsSpelling) {
  auto q = ParseQuery(
      "for $x in doc(\"b\")//book let $t = $x/title return $t");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
}

}  // namespace
}  // namespace uload
