// Storage layer: materialized views, index lookups, catalogs and the
// Chapter-2 storage model builders.
#include <gtest/gtest.h>

#include "eval/tuple_intersect.h"
#include "storage/catalog.h"
#include "storage/storage_models.h"
#include "support/evaluator.h"
#include "xam/xam_parser.h"
#include "xml/document.h"

namespace uload {
namespace {

constexpr const char* kLib =
    "<library>"
    "<book><year>1999</year><title>Data on the Web</title>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><year>2002</year><title>The Syntactic Web</title>"
    "<author>Tim</author></book>"
    "</library>";

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = Document::Parse(kLib);
    ASSERT_TRUE(d.ok());
    doc_ = std::move(d).value();
    summary_ = PathSummary::Build(&doc_);
  }
  Document doc_;
  PathSummary summary_;
};

TEST_F(StorageTest, MaterializeAndLookup) {
  NamedXam idx = ValueIndex("book", {"year", "title"});
  auto view = MaterializedView::Materialize(idx.name, idx.xam, doc_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->access_restricted());
  EXPECT_EQ(view->data().size(), 2);

  // Exact lookup through the hash index.
  auto hit = view->LookupRows(
      {{idx.name + "_n2_Val", AtomicValue::String("1999")},
       {idx.name + "_n3_Val", AtomicValue::String("Data on the Web")}});
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->size(), 1);

  auto miss = view->LookupRows(
      {{idx.name + "_n2_Val", AtomicValue::String("1999")},
       {idx.name + "_n3_Val", AtomicValue::String("No Such Book")}});
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->size(), 0);

  // Partial bindings fall back to a filtered scan.
  auto partial =
      view->LookupRows({{idx.name + "_n2_Val", AtomicValue::String("2002")}});
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->size(), 1);
}

TEST_F(StorageTest, CatalogEvalContext) {
  Catalog catalog;
  for (NamedXam& v : TagPartitionedModel(summary_)) {
    ASSERT_TRUE(catalog.AddXam(v.name, std::move(v.xam), doc_).ok());
  }
  ASSERT_NE(catalog.Find("tag_book"), nullptr);
  EXPECT_EQ(catalog.Find("tag_book")->data().size(), 2);
  EXPECT_EQ(catalog.Find("nope"), nullptr);
  EXPECT_GT(catalog.TotalBytes(), 0);

  EvalContext ctx = catalog.MakeEvalContext(&doc_);
  auto r = Evaluate(*LogicalPlan::Scan("tag_author"), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3);

  // IndexScan goes through the catalog's index_bind hook.
  Catalog with_index;
  NamedXam idx = ValueIndex("book", {"year"});
  ASSERT_TRUE(with_index.AddXam(idx.name, idx.xam, doc_).ok());
  EvalContext ctx2 = with_index.MakeEvalContext(&doc_);
  auto lookup = Evaluate(
      *LogicalPlan::IndexScan(
          idx.name, {{idx.name + "_n2_Val", AtomicValue::String("1999")}}),
      ctx2);
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_EQ(lookup->size(), 1);
}

TEST_F(StorageTest, DuplicateViewNameRejected) {
  Catalog catalog;
  NamedXam v = NonFragmentedStore("book");
  ASSERT_TRUE(catalog.AddXam(v.name, v.xam, doc_).ok());
  auto dup = catalog.AddXam(v.name, v.xam, doc_);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, ModelShapes) {
  // Edge model: one tuple per parent-child element pair.
  auto edge = MaterializedView::Materialize("e", EdgeModel()[0].xam, doc_);
  ASSERT_TRUE(edge.ok());
  // library->book x2, book->year x2, book->title x2, book->author x3.
  EXPECT_EQ(edge->data().size(), 9);

  // Path-partitioned model has one view per summary path.
  std::vector<NamedXam> pp = PathPartitionedModel(summary_);
  int64_t non_text_paths = 0;
  for (SummaryNodeId i = 1; i < summary_.size(); ++i) {
    if (summary_.node(i).kind != NodeKind::kText) ++non_text_paths;
  }
  EXPECT_EQ(static_cast<int64_t>(pp.size()), non_text_paths);

  // Non-fragmented store keeps full serialized content.
  auto blob =
      MaterializedView::Materialize("b", NonFragmentedStore("book").xam, doc_);
  ASSERT_TRUE(blob.ok());
  const NestedRelation& data = blob->data();
  int cont = data.schema().IndexOf("blob_book_n1_Cont");
  ASSERT_GE(cont, 0);
  EXPECT_NE(data.tuple(0).fields[cont].atom().as_string().find("<title>"),
            std::string::npos);
}

TEST_F(StorageTest, UniversalModelOuterjoins) {
  auto uni =
      MaterializedView::Materialize("u", UniversalModel(summary_)[0].xam,
                                    doc_);
  ASSERT_TRUE(uni.ok()) << uni.status().ToString();
  // Every element appears; multi-valued children (two authors under one
  // book) multiply their parent row, like the original Universal table's
  // overflow behaviour.
  EXPECT_GE(uni->data().size(), doc_.element_count());
}

TEST(TupleIntersection, AlgorithmOneCases) {
  // Schemas: t(ID, Tag, e2[(Val)]), binding b(ID, e2[(Val)]).
  SchemaPtr inner = Schema::Make({Attribute::Atomic("Val")});
  SchemaPtr ts = Schema::Make({Attribute::Atomic("ID"),
                               Attribute::Atomic("Tag"),
                               Attribute::Collection("e2", inner)});
  SchemaPtr bs = Schema::Make(
      {Attribute::Atomic("ID"), Attribute::Collection("e2", inner)});

  auto val = [](const std::string& s) {
    Tuple t;
    t.fields.emplace_back(AtomicValue::String(s));
    return t;
  };
  Tuple t;
  t.fields.emplace_back(AtomicValue::Number(2));
  t.fields.emplace_back(AtomicValue::String("book"));
  t.fields.emplace_back(TupleList{val("Abiteboul"), val("Suciu")});

  // Agreeing atomic + overlapping collection: keeps the overlap.
  Tuple b1;
  b1.fields.emplace_back(AtomicValue::Number(2));
  b1.fields.emplace_back(TupleList{val("Suciu"), val("Buneman")});
  auto r1 = TupleIntersect(*ts, t, *bs, b1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->has_value());
  EXPECT_EQ((**r1).fields[2].collection().size(), 1u);

  // Disagreeing atomic attribute: no data reachable.
  Tuple b2;
  b2.fields.emplace_back(AtomicValue::Number(7));
  b2.fields.emplace_back(TupleList{val("Suciu")});
  auto r2 = TupleIntersect(*ts, t, *bs, b2);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());

  // Empty collection intersection: no data reachable.
  Tuple b3;
  b3.fields.emplace_back(AtomicValue::Number(2));
  b3.fields.emplace_back(TupleList{val("Buneman")});
  auto r3 = TupleIntersect(*ts, t, *bs, b3);
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->has_value());
}

}  // namespace
}  // namespace uload
