// Tests of XAM algebraic semantics (thesis §2.2.2) against the worked
// examples of Figures 2.5, 2.8, 2.9.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "eval/xam_eval.h"
#include "exec/order_descriptor.h"
#include "storage/storage_models.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"
#include "xml/document.h"

namespace uload {
namespace {

constexpr const char* kLibrary =
    "<library>"
    "<book year=\"1999\">"
    "<title>Data on the Web</title>"
    "<author>Abiteboul</author>"
    "<author>Suciu</author>"
    "</book>"
    "<book>"
    "<title>The Syntactic Web</title>"
    "<author>Tom Lerners-Bee</author>"
    "</book>"
    "<phdthesis year=\"2004\">"
    "<title>The Web: next generation</title>"
    "<author>Jim Smith</author>"
    "</phdthesis>"
    "</library>";

class XamEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = Document::Parse(kLibrary);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    doc_ = std::move(parsed).value();
  }

  Xam MustParse(const std::string& text) {
    auto x = ParseXam(text);
    EXPECT_TRUE(x.ok()) << x.status().ToString();
    return std::move(x).value();
  }

  NestedRelation Eval(const Xam& x) {
    auto r = EvaluateXam(x, doc_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Document doc_;
};

// χ1 of Fig. 2.8: //book with ID and Tag stored -> both books.
TEST_F(XamEvalTest, SimpleTagPattern) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s tag\n"
      "edge top // j e1\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 2);
  EXPECT_EQ(r.tuple(0).fields[1].atom().as_string(), "book");
  EXPECT_EQ(r.tuple(1).fields[1].atom().as_string(), "book");
}

// χ2 of Fig. 2.8: //book[s @year] — semijoin: only the 1999 book remains.
TEST_F(XamEvalTest, SemijoinEdge) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s tag\n"
      "node e2 label=@year\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 1);
  // Attributes of the semijoined child are absent.
  EXPECT_EQ(r.schema().size(), 2);
}

// χ3 of Fig. 2.8: nested join of titles under the year-filtered book.
TEST_F(XamEvalTest, NestedJoinEdge) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s tag\n"
      "node e2 label=@year\n"
      "node e3 label=title id=s tag val\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n"
      "edge e1 / nj e3\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 1);
  // Schema: e1_ID, e1_Tag, e3(...)
  int coll = r.schema().IndexOf("e3");
  ASSERT_GE(coll, 0);
  const TupleList& titles = r.tuple(0).fields[coll].collection();
  ASSERT_EQ(titles.size(), 1u);
  EXPECT_EQ(titles[0].fields[2].atom().as_string(), "Data on the Web");
}

// Value predicate: //book[year="1999"] via the @year attribute value.
TEST_F(XamEvalTest, ValuePredicate) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s\n"
      "node e2 label=@year val=\"1999\"\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n");
  NestedRelation r = Eval(x);
  EXPECT_EQ(r.size(), 1);

  Xam x2 = MustParse(
      "xam\n"
      "node e1 label=book id=s\n"
      "node e2 label=@year val=\"2004\"\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n");
  EXPECT_EQ(Eval(x2).size(), 0);
}

// Numeric comparison predicate on attribute values.
TEST_F(XamEvalTest, NumericRangePredicate) {
  Xam x = MustParse(
      "xam\n"
      "node e1 id=s tag\n"
      "node e2 label=@year val>2000\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 1);
  EXPECT_EQ(r.tuple(0).fields[1].atom().as_string(), "phdthesis");
}

// Outerjoin edge: all publications, year attached where present.
TEST_F(XamEvalTest, OuterjoinEdge) {
  Xam x = MustParse(
      "xam\n"
      "node e1 id=s tag\n"
      "node e2 label=@year val\n"
      "edge top // j e1\n"
      "edge e1 / o e2\n");
  NestedRelation r = Eval(x);
  // All elements: library, 2 books, phdthesis, 3 titles, 4 authors = 11.
  ASSERT_EQ(r.size(), 11);
  int with_year = 0;
  int val_idx = r.schema().IndexOf("e2_Val");
  for (const Tuple& t : r.tuples()) {
    if (!t.fields[val_idx].atom().is_null()) ++with_year;
  }
  EXPECT_EQ(with_year, 2);
}

// Descendant edge: //library//author spans both books and the thesis.
TEST_F(XamEvalTest, DescendantEdge) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=library id=s\n"
      "node e2 label=author val\n"
      "edge top / j e1\n"
      "edge e1 // j e2\n");
  NestedRelation r = Eval(x);
  EXPECT_EQ(r.size(), 4);
}

// Root / edge restricts to the document root element.
TEST_F(XamEvalTest, RootChildEdge) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s\n"
      "edge top / j e1\n");
  // book is not the root element.
  EXPECT_EQ(Eval(x).size(), 0);
  Xam x2 = MustParse(
      "xam\n"
      "node e1 label=library id=s\n"
      "edge top / j e1\n");
  EXPECT_EQ(Eval(x2).size(), 1);
}

// Multi-node conjunctive XAM: book with title value and author value pairs.
TEST_F(XamEvalTest, JoinTree) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s\n"
      "node e2 label=title val\n"
      "node e3 label=author val\n"
      "edge top // j e1\n"
      "edge e1 / j e2\n"
      "edge e1 / j e3\n");
  NestedRelation r = Eval(x);
  // Book1: 1 title x 2 authors = 2; book2: 1 x 1 = 1.
  EXPECT_EQ(r.size(), 3);
}

// Fig. 2.9 (χ4/χ5): restricted XAM evaluated with bindings.
TEST_F(XamEvalTest, RestrictedXamWithBindings) {
  Xam x = MustParse(
      "xam\n"
      "node e1 id=s tag!\n"
      "node e2 label=title val!\n"
      "node e3 label=author val\n"
      "edge top // j e1\n"
      "edge e1 / j e2\n"
      "edge e1 / nj e3\n");
  // Binding: Tag="book", title Val="Data on the Web".
  SchemaPtr bschema = BindingSchema(x);
  ASSERT_EQ(bschema->size(), 2);  // e1_Tag, e2_Val
  NestedRelation bindings(bschema);
  Tuple b;
  b.fields.emplace_back(AtomicValue::String("book"));
  b.fields.emplace_back(AtomicValue::String("Data on the Web"));
  bindings.Add(std::move(b));

  auto r = EvaluateXamWithBindings(x, doc_, bindings);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1);

  // A binding for an absent article yields nothing.
  NestedRelation bindings2(bschema);
  Tuple b2;
  b2.fields.emplace_back(AtomicValue::String("article"));
  b2.fields.emplace_back(AtomicValue::String("Data on the Web"));
  bindings2.Add(std::move(b2));
  auto r2 = EvaluateXamWithBindings(x, doc_, bindings2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 0);

  // Two bindings produce the union (Example 2.2.2): both books.
  NestedRelation bindings3(bschema);
  Tuple b3a;
  b3a.fields.emplace_back(AtomicValue::String("book"));
  b3a.fields.emplace_back(AtomicValue::String("Data on the Web"));
  bindings3.Add(std::move(b3a));
  Tuple b3b;
  b3b.fields.emplace_back(AtomicValue::String("book"));
  b3b.fields.emplace_back(AtomicValue::String("The Syntactic Web"));
  bindings3.Add(std::move(b3b));
  auto r3 = EvaluateXamWithBindings(x, doc_, bindings3);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 2);
}

// Content storage: non-fragmented (§2.1.1) — the whole subtree serialized.
TEST_F(XamEvalTest, ContentStorage) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s cont\n"
      "edge top // j e1\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 2);
  int cont = r.schema().IndexOf("e1_Cont");
  EXPECT_NE(r.tuple(0).fields[cont].atom().as_string().find(
                "<title>Data on the Web</title>"),
            std::string::npos);
}

// Ordered XAMs produce document order; unordered deduplicate.
TEST_F(XamEvalTest, OrderedSemantics) {
  Xam x = MustParse(
      "xam ordered\n"
      "node e1 label=author id=s val\n"
      "edge top // j e1\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 4);
  EXPECT_EQ(r.tuple(0).fields[1].atom().as_string(), "Abiteboul");
  EXPECT_EQ(r.tuple(3).fields[1].atom().as_string(), "Jim Smith");
}

// Duplicate elimination for unordered XAMs (Π with dedup): a Val-only view
// over authors has 4 rows but distinct values may collapse.
TEST_F(XamEvalTest, DedupOnUnordered) {
  auto dup = Document::Parse(
      "<r><a>x</a><a>x</a><a>y</a></r>");
  ASSERT_TRUE(dup.ok());
  Xam x = MustParse(
      "xam\n"
      "node e1 label=a val\n"
      "edge top // j e1\n");
  auto r = EvaluateXam(x, *dup);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2);  // "x", "y"
}

// Dewey identifiers materialize when the node declares id=p.
TEST_F(XamEvalTest, ParentalIdKind) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=title id=p\n"
      "edge top // j e1\n");
  NestedRelation r = Eval(x);
  ASSERT_EQ(r.size(), 3);
  EXPECT_EQ(r.tuple(0).fields[0].atom().kind(), AtomicValue::Kind::kDewey);
}

// Declaring Dewey ids ('p') changes only the representation of the stored
// ids, never which tuples an extent holds: each 'p' extent has as many rows
// as its all-'s' twin, over every edge kind. (Extents used to join on the
// declared ids, and a Dewey id never contains a (pre, post, depth) id, so
// mixed patterns came out empty.)
TEST_F(XamEvalTest, DeweyExtentsMatchTheirStructuralTwins) {
  const char* kPatterns[] = {
      // Dewey ancestor over a structural child.
      "node e1 label=book id=P\nnode e2 label=author id=s val\n"
      "edge top // j e1\nedge e1 // j e2\n",
      // Dewey ancestor over a child that stores no id.
      "node e1 label=book id=P\nnode e2 label=author val\n"
      "edge top // j e1\nedge e1 / j e2\n",
      // Dewey ancestor with a semijoined child.
      "node e1 label=book id=P\nnode e2 label=author\n"
      "edge top // j e1\nedge e1 // s e2\n",
      // Optional and nested Dewey children.
      "node e1 label=library id=s\nnode e2 label=book id=P\n"
      "node e3 label=title id=P val\n"
      "edge top / j e1\nedge e1 / o e2\nedge e2 / nj e3\n",
  };
  for (const char* body : kPatterns) {
    std::string dewey = std::string("xam\n") + body;
    std::string twin = dewey;
    for (size_t at = twin.find("id=P"); at != std::string::npos;
         at = twin.find("id=P", at)) {
      dewey.replace(at, 4, "id=p");
      twin.replace(at, 4, "id=s");
    }
    NestedRelation d = Eval(MustParse(dewey));
    NestedRelation t = Eval(MustParse(twin));
    EXPECT_GT(t.size(), 0) << twin;
    EXPECT_EQ(d.size(), t.size()) << dewey;
    EXPECT_TRUE(d.schema().Equals(t.schema())) << dewey;
  }
}

// View schema shape matches the specification.
TEST_F(XamEvalTest, ViewSchemaShape) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s tag\n"
      "node e2 label=author val\n"
      "edge top // j e1\n"
      "edge e1 / nj e2\n");
  SchemaPtr s = x.ViewSchema();
  EXPECT_EQ(s->ToString(), "e1_ID, e1_Tag, e2(e2_Val)");
  NestedRelation r = Eval(x);
  EXPECT_TRUE(r.schema().Equals(*s));
}

// One schema per view: ViewSchema() is the schema of the extent. A
// semijoined subtree stores nothing, and every catalog view of every
// storage model reports the schema its data has, over both backends.
TEST_F(XamEvalTest, ViewSchemaIsTheExtentSchema) {
  Xam semi = MustParse(
      "xam\n"
      "node e1 label=book id=s cont\n"
      "node e2 label=author val\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n");
  EXPECT_EQ(semi.ViewSchema()->ToString(), "e1_ID, e1_Cont");
  EXPECT_EQ(Eval(semi).schema().ToString(), "e1_ID, e1_Cont");

  const Document xmark = GenerateXMark(XMarkScale(0.02));
  for (auto backend : {Engine::Options::Backend::kPointer,
                       Engine::Options::Backend::kColumnar}) {
    Engine::Options opts;
    opts.backend = backend;
    Engine engine{Document(xmark), opts};
    const PathSummary& s = engine.summary();
    const std::pair<const char*, std::vector<NamedXam>> models[] = {
        {"edge", EdgeModel()},
        {"universal", UniversalModel(s)},
        {"node_table", NodeTableModel()},
        {"structural_id", StructuralIdModel()},
        {"tag-partitioned", TagPartitionedModel(s)},
        {"path-partitioned", PathPartitionedModel(s)},
        {"inlined", InlinedShreddingModel(s)},
    };
    for (const auto& [model, views] : models) {
      ASSERT_TRUE(engine.InstallModel(views).ok()) << model;
      for (const auto& view : engine.catalog().views()) {
        auto extent = EvaluateXam(view->definition(), engine.store());
        ASSERT_TRUE(extent.ok()) << extent.status().ToString();
        EXPECT_TRUE(view->schema()->Equals(extent->schema()))
            << model << "/" << view->name() << ": "
            << view->schema()->ToString() << " vs "
            << extent->schema().ToString();
      }
    }
  }
}

// ExtentOrder reads the order off the definition. A leading chain of inner
// `/` edges from ⊤ is ordered by its deepest node that stores an ID: each
// chain node sits at a fixed depth and is the parent of the next, so the
// sort over the chain is that node's document order, and the chain nodes
// that store IDs are declared below an ID-less root. A `//` edge ends the
// chain and declares nothing new. Every declared order must hold on the
// extent EvaluateXam produces.
TEST_F(XamEvalTest, ExtentOrderFollowsTheLeadingChildChain) {
  const struct {
    const char* what;
    const char* text;
    const char* order;
  } cases[] = {
      {"path view", R"(xam
node e1 label=library
node e2 label=book
node e3 label=title id=s val
edge top / j e1
edge e1 / j e2
edge e2 / j e3
)",
       "⇃e3_ID⇂"},
      {"inlined view", R"(xam
node e1 label=library
node e2 label=book id=o
node e3 label=author id=o val
edge top / j e1
edge e1 / j e2
edge e2 / j e3
)",
       "⇃e2_ID, e3_ID⇂"},
      {"inlined view with inlined children", R"(xam
node e1 label=library id=o
node e2 label=book id=o val
node e3 label=@year val
node e4 label=title val
edge top / j e1
edge e1 / j e2
edge e2 / o e3
edge e2 / j e4
)",
       "⇃e1_ID, e2_ID⇂"},
      {"chain ending without an ID", R"(xam
node e1 label=library
node e2 label=book id=s
node e3 label=title val
node e4 label=author id=s
edge top / j e1
edge e1 / j e2
edge e2 / j e3
edge e2 // j e4
)",
       "⇃e2_ID⇂"},
      {"chain ending in an ID, then more ids", R"(xam
node e1 label=library
node e2 label=book id=s
node e3 label=author id=s
edge top / j e1
edge e1 / j e2
edge e2 // j e3
)",
       "⇃e2_ID, e3_ID⇂"},
      {"// nested under the chain", R"(xam
node e1 label=library
node e2 label=title id=s val
edge top / j e1
edge e1 // j e2
)",
       "⇃⇂"},
      {"// from top", R"(xam
node e1 label=book id=s
node e2 label=title id=s
edge top // j e1
edge e1 / j e2
)",
       "⇃e1_ID, e2_ID⇂"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    Xam x = MustParse(c.text);
    const OrderDescriptor order = ExtentOrder(x);
    EXPECT_EQ(order.ToString(), c.order);
    NestedRelation extent = Eval(x);
    ASSERT_GT(extent.size(), 1);
    NestedRelation sorted = extent;
    ASSERT_TRUE(SortBy(order, &sorted).ok());
    EXPECT_TRUE(sorted.Equals(extent)) << extent.ToString();
  }
}

}  // namespace
}  // namespace uload

namespace uload {
namespace {

// Nested bindings (Example 2.2.2's shape): the required value sits inside a
// nested collection, so binding tuples carry nested lists and intersection
// recurses (Algorithm 1 lines 8-11).
TEST_F(XamEvalTest, RestrictedXamWithNestedBindings) {
  Xam x = MustParse(
      "xam\n"
      "node e1 label=book id=s\n"
      "node e2 label=author val!\n"
      "edge top // j e1\n"
      "edge e1 / nj e2\n");
  SchemaPtr bschema = BindingSchema(x);
  // Required Val nested inside the e2 collection.
  ASSERT_EQ(bschema->size(), 1);
  ASSERT_TRUE(bschema->attr(0).is_collection);

  NestedRelation bindings(bschema);
  Tuple b;
  TupleList authors;
  Tuple a;
  a.fields.emplace_back(AtomicValue::String("Suciu"));
  authors.push_back(std::move(a));
  b.fields.emplace_back(std::move(authors));
  bindings.Add(std::move(b));

  auto r = EvaluateXamWithBindings(x, doc_, bindings);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only the first book has Suciu; its author collection intersects down to
  // the matching entry.
  ASSERT_EQ(r->size(), 1);
  int coll = r->schema().IndexOf("e2");
  ASSERT_GE(coll, 0);
  EXPECT_EQ(r->tuple(0).fields[coll].collection().size(), 1u);
}

}  // namespace
}  // namespace uload
