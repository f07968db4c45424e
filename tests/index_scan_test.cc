// Access-path parity: a kIndexScan over an R-marked view must be
// byte-identical to the full-scan-plus-select plan over the same bindings —
// on the physical engine and on the test oracle, both of which read the
// index through the index_bind row handout — for every generated binding.
// Compiling a plan binds each index leaf exactly once; verifying it binds
// none.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "eval/tag_collections.h"
#include "exec/physical.h"
#include "storage/catalog.h"
#include "storage/storage_models.h"
#include "summary/path_summary.h"
#include "support/evaluator.h"
#include "verify/plan_verifier.h"
#include "xml/document.h"

namespace uload {
namespace {

constexpr const char* kBib =
    "<bib>"
    "<book><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<book><title>Patterns</title><year>1999</year>"
    "<author>Arion</author></book>"
    "<phdthesis><title>XAMs</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

class IndexScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = Document::Parse(kBib);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    doc_ = std::move(d).value();
    summary_ = PathSummary::Build(&doc_);
    NamedXam idx = ValueIndex("book", {"year"});
    name_ = idx.name;
    auto st = catalog_.AddXam(idx.name, std::move(idx.xam), doc_);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Schema attribute names are builder-generated; discover them by suffix.
  std::string AttrEndingWith(const Schema& s, const std::string& suffix) {
    for (int i = 0; i < s.size(); ++i) {
      const std::string& n = s.attr(i).name;
      if (n.size() >= suffix.size() &&
          n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
        return n;
      }
    }
    return "";
  }

  Document doc_;
  PathSummary summary_;
  Catalog catalog_;
  std::string name_;
};

TEST_F(IndexScanTest, LookupMatchesScanPlusSelectForEveryKey) {
  const MaterializedView* view = catalog_.Find(name_);
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(view->access_restricted());
  const std::string key_attr = AttrEndingWith(view->data().schema(), "_Val");
  ASSERT_FALSE(key_attr.empty());
  int key_idx = view->data().schema().IndexOf(key_attr);
  ASSERT_GE(key_idx, 0);

  // Every stored key value, plus one value with no matches.
  std::set<std::string> keys;
  for (const Tuple& t : view->data().tuples()) {
    keys.insert(t.fields[key_idx].atom().as_string());
  }
  ASSERT_GE(keys.size(), 2u);
  keys.insert("1871");

  EvalContext ctx = catalog_.MakeEvalContext(&doc_);

  for (const std::string& key : keys) {
    AtomicValue val = AtomicValue::String(key);
    PlanPtr index_plan = LogicalPlan::IndexScan(name_, {{key_attr, val}});
    PlanPtr scan_plan = LogicalPlan::Select(
        LogicalPlan::Scan(name_),
        Predicate::CompareConst(key_attr, Comparator::kEq, val));

    auto want = ExecutePhysicalPlan(scan_plan, ctx);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto rows = view->LookupRows({{key_attr, val}});
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    NestedRelation direct(view->data().schema_ptr(), view->data().kind());
    for (int64_t i : *rows) direct.Add(view->data().tuple(i));

    auto streamed = ExecutePhysicalPlan(index_plan, ctx);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    auto evaluated = Evaluate(*index_plan, ctx);
    ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
    for (const NestedRelation* got : {&*streamed, &*evaluated}) {
      // Byte-identical: same tuples, same (storage) order.
      EXPECT_TRUE(got->Equals(*want)) << "key " << key;
      EXPECT_EQ(got->ToString(), want->ToString()) << "key " << key;
      EXPECT_EQ(got->ToString(), direct.ToString()) << "key " << key;
    }
  }
}

TEST_F(IndexScanTest, StreamingPathCompilesToIndexScanOperator) {
  const MaterializedView* view = catalog_.Find(name_);
  ASSERT_NE(view, nullptr);
  const std::string key_attr = AttrEndingWith(view->data().schema(), "_Val");
  EvalContext ctx = catalog_.MakeEvalContext(&doc_);
  PlanPtr plan = LogicalPlan::IndexScan(
      name_, {{key_attr, AtomicValue::String("1999")}});
  auto root = CompilePhysicalPlan(plan, ctx);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ((*root)->Describe(),
            "FusedPipeline_phi[IndexScan_phi(" + name_ + ")]\n");
}

TEST_F(IndexScanTest, IndexScanAdvertisesStorageOrder) {
  // The selected rows keep storage (document) order, so the scan inherits
  // the view's declared order and needs no Sort_φ enforcer on the id.
  const MaterializedView* view = catalog_.Find(name_);
  ASSERT_NE(view, nullptr);
  const std::string key_attr = AttrEndingWith(view->data().schema(), "_Val");
  const std::string id_attr = AttrEndingWith(view->data().schema(), "_ID");
  ASSERT_FALSE(id_attr.empty());
  EvalContext ctx = catalog_.MakeEvalContext(&doc_);
  PlanPtr plan = LogicalPlan::IndexScan(
      name_, {{key_attr, AtomicValue::String("1999")}});
  auto root = CompilePhysicalPlan(plan, ctx);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ((*root)->order().ToString(), view->order().ToString());
  EXPECT_TRUE(OrderCovers((*root)->order(), OrderDescriptor::On(id_attr)));
}

// The verifier takes an index scan's schema from the catalog's views: it
// never calls the index hook, while compilation calls it once per scan.
TEST_F(IndexScanTest, VerificationNeverProbesTheIndex) {
  const MaterializedView* view = catalog_.Find(name_);
  ASSERT_NE(view, nullptr);
  const std::string key_attr = AttrEndingWith(view->data().schema(), "_Val");
  EvalContext ctx = catalog_.MakeEvalContext(&doc_);
  int calls = 0;
  auto bind = ctx.index_bind;
  ctx.index_bind =
      [&](const std::string& name,
          const std::vector<std::pair<std::string, AtomicValue>>& bindings) {
        ++calls;
        return bind(name, bindings);
      };
  PlanPtr plan = LogicalPlan::Union(
      LogicalPlan::IndexScan(name_, {{key_attr, AtomicValue::String("1999")}}),
      LogicalPlan::IndexScan(name_,
                             {{key_attr, AtomicValue::String("2002")}}));
  auto schema = VerifyLogicalPlan(*plan, ctx);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ((*schema)->ToString(), view->schema()->ToString());
  EXPECT_EQ(calls, 0);
  ExecContext exec;
  ASSERT_TRUE(exec.verify_plans());
  auto root = CompilePhysicalPlan(plan, ctx, &exec);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(calls, 2);
}

// Each structural-join child is compiled once and its join attributes are
// resolved on that compiled tree: over a left-deep chain of three joins
// with IndexScan leaves, every leaf's index_bind hook fires exactly once.
TEST(IndexScanCompileTest, JoinChainBindsEachLeafOnce) {
  auto d = Document::Parse(kBib);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  Document doc = std::move(d).value();
  std::map<std::string, NestedRelation> rels;
  for (const auto& [tag, prefix] :
       std::map<std::string, std::string>{
           {"bib", "r"}, {"book", "k"}, {"title", "t"}, {"author", "a"}}) {
    rels.emplace(tag, TagCollection(doc, tag, {prefix, true, true, false}));
  }
  std::map<std::string, int> calls;
  EvalContext ctx;
  ctx.document = &doc;
  ctx.index_bind = [&](const std::string& name,
                       const std::vector<std::pair<std::string, AtomicValue>>&)
      -> Result<IndexBinding> {
    ++calls[name];
    IndexBinding b;
    b.data = &rels.at(name);
    for (int64_t i = 0; i < b.data->size(); ++i) b.rows.push_back(i);
    return b;
  };
  auto leaf = [](const std::string& name) {
    return LogicalPlan::IndexScan(name, {});
  };
  PlanPtr plan = LogicalPlan::StructuralJoin(
      LogicalPlan::StructuralJoin(
          LogicalPlan::StructuralJoin(leaf("bib"), leaf("book"), "r_ID",
                                      Axis::kDescendant, "k_ID",
                                      JoinVariant::kInner),
          leaf("title"), "k_ID", Axis::kChild, "t_ID", JoinVariant::kInner),
      leaf("author"), "k_ID", Axis::kChild, "a_ID", JoinVariant::kInner);

  ExecContext exec;
  auto root = CompilePhysicalPlan(plan, ctx, &exec);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(calls, (std::map<std::string, int>{
                       {"bib", 1}, {"book", 1}, {"title", 1}, {"author", 1}}));

  auto got = ExecutePhysical(root->get());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = Evaluate(*plan, ctx);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_GT(want->size(), 0);
  EXPECT_TRUE(got->EqualsUnordered(*want))
      << "physical rows=" << got->size() << " evaluator rows=" << want->size();
}

}  // namespace
}  // namespace uload
