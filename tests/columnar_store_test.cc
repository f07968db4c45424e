// The columnar backend's storage contract: every DocumentStore accessor of
// ColumnarDocument must agree row-for-row with the pointer tree it was built
// from, and a Save/Load round trip through the persisted format must hand
// back an indistinguishable store (thesis Ch. 2 physical data independence,
// taken literally at the accessor level).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "eval/xam_eval.h"
#include "exec/physical.h"
#include "storage/columnar/columnar_document.h"
#include "storage/columnar/columnar_format.h"
#include "storage/columnar/varint.h"
#include "storage/storage_models.h"
#include "storage/store.h"
#include "workload/dblp.h"
#include "workload/xmark.h"
#include "xml/serialize.h"

namespace uload {
namespace {

constexpr const char* kBib =
    "<bib>"
    "<book id=\"b1\"><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<phdthesis><title>XAMs &amp; views</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Every accessor of `a` and `b` must agree on every row.
void ExpectStoresEqual(const DocumentStore& a, const DocumentStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.document_node(), b.document_node());
  EXPECT_EQ(a.element_count(), b.element_count());
  for (NodeIndex i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.kind(i), b.kind(i)) << "row " << i;
    EXPECT_EQ(a.label(i), b.label(i)) << "row " << i;
    EXPECT_EQ(a.sid(i).pre, b.sid(i).pre) << "row " << i;
    EXPECT_EQ(a.sid(i).post, b.sid(i).post) << "row " << i;
    EXPECT_EQ(a.sid(i).depth, b.sid(i).depth) << "row " << i;
    EXPECT_EQ(a.parent(i), b.parent(i)) << "row " << i;
    EXPECT_EQ(a.ordinal(i), b.ordinal(i)) << "row " << i;
    EXPECT_EQ(a.SubtreeEnd(i), b.SubtreeEnd(i)) << "row " << i;
    EXPECT_EQ(a.Children(i), b.Children(i)) << "row " << i;
    EXPECT_EQ(a.Value(i), b.Value(i)) << "row " << i;
    EXPECT_EQ(a.Dewey(i), b.Dewey(i)) << "row " << i;
    if (i > 0) {
      EXPECT_EQ(a.Content(i), b.Content(i)) << "row " << i;
      EXPECT_EQ(SerializeSubtree(a, i), SerializeSubtree(b, i)) << "row " << i;
    }
  }
}

Document MustParse(const char* xml) {
  auto d = Document::Parse(xml);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return std::move(d).value();
}

TEST(ColumnarStore, AccessorParityOnBib) {
  Document doc = MustParse(kBib);
  PathSummary summary = PathSummary::Build(&doc);
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  EXPECT_EQ(col.backend_name(), "columnar");
  EXPECT_EQ(doc.backend_name(), "pointer");
  ExpectStoresEqual(doc, col);
}

// Shapes the generated corpora rarely hold: attributes on every level,
// empty elements (with and without attributes), mixed text around elements,
// and a document whose root has text before and after nested elements.
TEST(ColumnarStore, AccessorParityOnCornerCases) {
  for (const char* xml : {
           "<r/>",
           "<r a=\"1\" b=\"\"/>",
           "<r><e/><e x=\"y\"/><e></e></r>",
           "<r>head<b>bold<i>it</i>tail</b>mid<e/>end</r>",
           "<r k=\"v\"><p id=\"1\">t<q z=\"2\">u<w/></q>v</p><p/>"
           "<p id=\"3\"><q><q><q>deep</q></q></q></p></r>",
           "<r>&lt;&amp;&gt;<s a=\"&quot;\">x</s></r>",
       }) {
    SCOPED_TRACE(xml);
    Document doc = MustParse(xml);
    PathSummary summary = PathSummary::Build(&doc);
    ColumnarDocument col = ColumnarDocument::FromDocument(doc);
    ExpectStoresEqual(doc, col);
    // The children SubtreeEnd hops to are the rows whose parent link names
    // the node, and a child's ordinal is its position among them.
    for (const DocumentStore* store :
         {static_cast<const DocumentStore*>(&doc),
          static_cast<const DocumentStore*>(&col)}) {
      std::vector<std::vector<NodeIndex>> kids(store->size());
      for (NodeIndex i = 1; i < store->size(); ++i) {
        EXPECT_EQ(store->ordinal(i), kids[store->parent(i)].size())
            << store->backend_name() << " row " << i;
        kids[store->parent(i)].push_back(i);
      }
      for (NodeIndex i = 0; i < store->size(); ++i) {
        EXPECT_EQ(store->Children(i), kids[i])
            << store->backend_name() << " row " << i;
      }
    }
  }
}

// A document assembled through AddNode may give the document node a text
// child before its element, or two elements. The loader rejects such an
// image; the columnar copy of such a Document still agrees with the pointer
// tree on every accessor, root() (the first element child) included.
TEST(ColumnarStore, AccessorParityOnHandAssembledDocuments) {
  for (bool text_first : {true, false}) {
    SCOPED_TRACE(text_first ? "text before the root" : "two root elements");
    Document doc;
    if (text_first) doc.AddNode(NodeKind::kText, "", "lead", 0);
    NodeIndex a = doc.AddNode(NodeKind::kElement, "a", "", 0);
    doc.AddNode(NodeKind::kText, "", "x", a);
    if (!text_first) doc.AddNode(NodeKind::kElement, "b", "", 0);
    doc.Finalize();
    ColumnarDocument col = ColumnarDocument::FromDocument(doc);
    EXPECT_EQ(col.root(), a);
    ExpectStoresEqual(doc, col);
  }
}

TEST(ColumnarStore, AccessorParityOnGeneratedCorpora) {
  {
    Document doc = GenerateDblp({200, 7});
    PathSummary summary = PathSummary::Build(&doc);
    ExpectStoresEqual(doc, ColumnarDocument::FromDocument(doc));
  }
  {
    Document doc = GenerateXMark(XMarkScale(0.05));
    PathSummary summary = PathSummary::Build(&doc);
    ExpectStoresEqual(doc, ColumnarDocument::FromDocument(doc));
  }
}

TEST(ColumnarStore, SubtreeEndMatchesSidContainment) {
  Document doc = GenerateDblp({50, 7});
  PathSummary summary = PathSummary::Build(&doc);
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  for (NodeIndex i = 1; i < col.size(); ++i) {
    // Descendants of i are exactly the contiguous rows (i, SubtreeEnd(i)).
    NodeIndex end = col.SubtreeEnd(i);
    ASSERT_GT(end, i);
    for (NodeIndex j = i + 1; j < col.size() && j < end + 5; ++j) {
      // Pre-order contiguity vs. sid containment (pre < pre', post' < post):
      // the two descendant tests must agree on every row.
      bool sid_desc =
          col.sid(j).pre > col.sid(i).pre && col.sid(j).post < col.sid(i).post;
      EXPECT_EQ(j < end, sid_desc) << "anchor " << i << " row " << j;
    }
  }
}

TEST(ColumnarStore, SaveLoadRoundTripPreservesEveryAccessor) {
  Document doc = GenerateDblp({120, 7});
  PathSummary summary = PathSummary::Build(&doc);
  ColumnarDocument col = ColumnarDocument::FromDocument(doc);
  const std::string path = TempPath("roundtrip.uldcol");
  auto st = SaveColumnar(col, summary.Serialize(), path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto loaded = LoadColumnar(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStoresEqual(col, loaded->document);
  ExpectStoresEqual(doc, loaded->document);
  auto sum2 = PathSummary::Deserialize(loaded->summary_text);
  ASSERT_TRUE(sum2.ok()) << sum2.status().ToString();
  EXPECT_EQ(sum2->size(), summary.size());
  std::remove(path.c_str());
}

TEST(ColumnarStore, EngineSaveLoadAnswersQueriesWithoutReparse) {
  Document doc = MustParse(kBib);
  Engine::Options opts;
  opts.backend = Engine::Options::Backend::kColumnar;
  Engine original(std::move(doc), opts);
  ASSERT_NE(original.columnar_store(), nullptr);
  auto st = original.InstallModel(TagPartitionedModel(original.summary()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string q =
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>";
  auto before = original.Run(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  const std::string path = TempPath("engine.uldcol");
  st = original.Save(path);
  ASSERT_TRUE(st.ok()) << st.ToString();

  auto restored = Engine::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_NE((*restored)->columnar_store(), nullptr);
  st = (*restored)->InstallModel(TagPartitionedModel((*restored)->summary()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto after = (*restored)->Run(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*before, *after);
  std::remove(path.c_str());
}

TEST(ColumnarStore, PointerBackendEngineCanSaveToo) {
  Document doc = MustParse(kBib);
  Engine original(std::move(doc));  // default backend: pointer tree
  ASSERT_EQ(original.columnar_store(), nullptr);
  const std::string path = TempPath("from_pointer.uldcol");
  auto st = original.Save(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto restored = Engine::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectStoresEqual(original.store(), (*restored)->store());
  std::remove(path.c_str());
}

TEST(ColumnarStore, VirtualExtentGateAcceptsSimpleCollections) {
  Document doc = MustParse(kBib);
  PathSummary summary = PathSummary::Build(&doc);
  int virtualized = 0;
  for (const NamedXam& v : TagPartitionedModel(summary)) {
    if (QualifiesAsVirtualExtent(v.xam)) ++virtualized;
  }
  // The whole tag-partitioned model is simple descendant collections —
  // every view must run as a virtual extent over the column store.
  EXPECT_GT(virtualized, 0);
}

TEST(ColumnarStore, ColumnarEnginePlansUseVirtualExtentScans) {
  Document doc = MustParse(kBib);
  Engine::Options opts;
  opts.backend = Engine::Options::Backend::kColumnar;
  Engine engine(std::move(doc), opts);
  auto st = engine.InstallModel(TagPartitionedModel(engine.summary()));
  ASSERT_TRUE(st.ok()) << st.ToString();
  // //title targets a leaf-tag view: its values are dictionary-backed, so
  // the extent stays virtual. (//book would materialize — book elements have
  // element children, so their Val is not dictionary-servable.)
  auto ex = engine.Explain(
      "for $x in doc(\"bib\")//title return <t>{$x/text()}</t>");
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  // The physical tree must scan the column store directly — a plain Scan
  // would mean the view was silently materialized and the backend swap is
  // not exercising the columnar path at all.
  EXPECT_NE(ex->physical.find("ColumnarScan"), std::string::npos)
      << ex->physical;
}

// A virtual extent stores no tuples, and its scan yields exactly the XAM
// semantics of its definition, tuple for tuple.
TEST(ColumnarStore, VirtualExtentsMatchXamSemantics) {
  Engine::Options opts;
  opts.backend = Engine::Options::Backend::kColumnar;
  Engine engine(GenerateXMark(XMarkScale(0.02)), opts);
  int virtualized = 0;
  for (auto model : {TagPartitionedModel, PathPartitionedModel}) {
    ASSERT_TRUE(engine.InstallModel(model(engine.summary())).ok());
    const EvalContext ctx = engine.catalog().MakeEvalContext(&engine.store());
    for (const auto& view : engine.catalog().views()) {
      if (view->virtual_store() == nullptr) continue;
      ++virtualized;
      auto expected = EvaluateXam(view->definition(), engine.store());
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      auto scanned = ExecutePhysicalPlan(LogicalPlan::Scan(view->name()), ctx);
      ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
      EXPECT_TRUE(scanned->Equals(*expected)) << view->name();
      EXPECT_EQ(view->row_count(), expected->size()) << view->name();
      EXPECT_TRUE(view->data().empty()) << view->name();
    }
  }
  EXPECT_GT(virtualized, 0);
}

TEST(ColumnarStore, DeltaVarintRoundTrip) {
  const std::vector<std::vector<uint64_t>> cases = {
      {},
      {0},
      {1, 2, 3, 4, 5},
      {0, 0, 7, 7, 1u << 20, (1u << 20) + 1, uint64_t{1} << 40},
  };
  for (const auto& ids : cases) {
    std::string buf;
    PutDeltaVarints(ids, &buf);
    DeltaVarintReader r(reinterpret_cast<const uint8_t*>(buf.data()),
                        buf.size());
    std::vector<uint64_t> back;
    uint64_t v = 0;
    while (r.Next(&v)) back.push_back(v);
    EXPECT_EQ(back, ids);
  }
}

}  // namespace
}  // namespace uload
