// PlanVerifier tests (verify/plan_verifier.h): each class of ill-formed
// plan — dangling column references, bogus Sort_φ elisions, malformed
// templates — must fire a precise diagnostic, and every plan the engine
// actually compiles must verify clean (the corpus sweep at the bottom; the
// randomized harness in exec_batch_test.cc sweeps generated patterns the
// same way).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "eval/tag_collections.h"
#include "exec/fusion.h"
#include "exec/physical.h"
#include "verify/batch_validator.h"
#include "verify/plan_verifier.h"
#include "workload/xmark.h"

namespace uload {
namespace {

class PlanVerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.02));
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    ctx_.relations = {{"people", {&people_, OrderDescriptor::On("p_ID")}},
                      {"names", {&names_, OrderDescriptor::On("n_ID")}}};
    ctx_.document = &doc_;
  }

  PlanPtr PeopleNamesJoin() {
    return LogicalPlan::StructuralJoin(
        LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
        Axis::kDescendant, "n_ID", JoinVariant::kInner);
  }

  // The names relation as a bare fused source, declared in document order.
  PhysicalPtr NamesScan() {
    FusedPipelineBuilder b;
    b.SourceRelation(&names_, "Scan_phi(names)", std::nullopt,
                     OrderDescriptor::On("n_ID"));
    return std::move(b.Build()).value();
  }

  Document doc_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
};

// --- Logical schema/type checking --------------------------------------------

TEST_F(PlanVerifierTest, CleanJoinPlanInfersOutputSchema) {
  auto schema = VerifyLogicalPlan(*PeopleNamesJoin(), ctx_);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_TRUE(ResolveAttrPath(**schema, "p_ID").ok());
  EXPECT_TRUE(ResolveAttrPath(**schema, "n_Val").ok());
}

TEST_F(PlanVerifierTest, DanglingSelectColumnFiresDiagnostic) {
  PlanPtr plan = LogicalPlan::Select(
      LogicalPlan::Scan("people"),
      Predicate::CompareConst("p_Bogus", Comparator::kEq,
                              AtomicValue::String("x")));
  auto schema = VerifyLogicalPlan(*plan, ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kTypeError);
  // The diagnostic names the operator path, the column and the candidates.
  EXPECT_NE(schema.status().message().find("at Select"), std::string::npos)
      << schema.status().ToString();
  EXPECT_NE(schema.status().message().find("'p_Bogus'"), std::string::npos);
  EXPECT_NE(schema.status().message().find("candidates"), std::string::npos);
  EXPECT_NE(schema.status().message().find("p_ID"), std::string::npos);
}

TEST_F(PlanVerifierTest, DanglingProjectColumnFiresDiagnostic) {
  PlanPtr plan =
      LogicalPlan::Project(LogicalPlan::Scan("names"), {"n_ID", "n_Gone"});
  auto schema = VerifyLogicalPlan(*plan, ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().message().find("projected column"),
            std::string::npos)
      << schema.status().ToString();
  EXPECT_NE(schema.status().message().find("'n_Gone'"), std::string::npos);
}

TEST_F(PlanVerifierTest, DanglingJoinColumnFiresDiagnostic) {
  PlanPtr plan = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kDescendant, "name_ID", JoinVariant::kInner);
  auto schema = VerifyLogicalPlan(*plan, ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().message().find("right join column"),
            std::string::npos)
      << schema.status().ToString();
}

TEST_F(PlanVerifierTest, UnboundRelationFiresNotFound) {
  auto schema = VerifyLogicalPlan(*LogicalPlan::Scan("nope"), ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kNotFound);
  EXPECT_NE(schema.status().message().find("'nope'"), std::string::npos);
}

TEST_F(PlanVerifierTest, SortOverCollectionAttributeFiresDiagnostic) {
  // The nest join groups each person's names into one collection
  // attribute; sorting on it would read .atom() out of a collection field.
  PlanPtr plan = LogicalPlan::SortOp(
      LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                  LogicalPlan::Scan("names"), "p_ID",
                                  Axis::kDescendant, "n_ID",
                                  JoinVariant::kNestOuter, "grp"),
      {"grp"});
  auto schema = VerifyLogicalPlan(*plan, ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().message().find("collection attribute"),
            std::string::npos)
      << schema.status().ToString();
}

TEST_F(PlanVerifierTest, ErrorsSurfaceThroughNestedOperators) {
  // The dangling column sits two operators deep; the path in the
  // diagnostic walks down to it.
  PlanPtr plan = LogicalPlan::SortOp(
      LogicalPlan::Select(
          LogicalPlan::Project(LogicalPlan::Scan("names"), {"n_Oops"}),
          Predicate::True()),
      {"n_ID"});
  auto schema = VerifyLogicalPlan(*plan, ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_NE(schema.status().message().find("Sort/Select/Project"),
            std::string::npos)
      << schema.status().ToString();
}

// --- Template binding checks -------------------------------------------------

TEST_F(PlanVerifierTest, TemplateValueRefMustResolve) {
  XmlTemplate templ;
  templ.roots.push_back(TemplateNode::Element(
      "t", {TemplateNode::ValueRef("n_Missing")}));
  Status st = VerifyTemplate(templ, names_.schema());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("template value reference"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("'n_Missing'"), std::string::npos);

  templ.roots[0].children[0] = TemplateNode::ValueRef("n_Val");
  EXPECT_TRUE(VerifyTemplate(templ, names_.schema()).ok());
}

TEST_F(PlanVerifierTest, TemplateIterationRequiresCollection) {
  XmlTemplate templ;
  templ.roots.push_back(TemplateNode::Element(
      "t", {TemplateNode::Text("x")}, /*iterate=*/"n_Val"));
  Status st = VerifyTemplate(templ, names_.schema());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("iterates over atomic"), std::string::npos)
      << st.ToString();
}

// --- Physical order soundness ------------------------------------------------

TEST_F(PlanVerifierTest, BogusSortElisionObligationIsCaught) {
  // The document-ordered scan declares On(n_ID) and is legal on its own.
  PhysicalPtr scan = NamesScan();
  ASSERT_EQ(scan->order().ToString(), OrderDescriptor::On("n_ID").ToString());
  ASSERT_TRUE(VerifyPhysicalPlan(*scan).ok());
  // An obligation recorded for an elided Sort_φ(n_Val) is not covered by
  // the scan's On(n_ID) order — eliding that sort was unsound.
  PhysicalVerifyOptions opts;
  opts.order_obligations.emplace_back(scan.get(),
                                      OrderDescriptor::On("n_Val"));
  Status st = VerifyPhysicalPlan(*scan, opts);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("elided"), std::string::npos) << st.ToString();
  // A covered obligation passes.
  PhysicalVerifyOptions ok_opts;
  ok_opts.order_obligations.emplace_back(scan.get(),
                                         OrderDescriptor::On("n_ID"));
  EXPECT_TRUE(VerifyPhysicalPlan(*scan, ok_opts).ok());
}

// --- Batch validator (dynamic leg) -------------------------------------------

TEST_F(PlanVerifierTest, BatchValidatorCatchesShapeMismatch) {
  const Schema& schema = names_.schema();
  TupleBatch good(names_.schema_ptr(), 4);
  good.Add(names_.tuples()[0]);
  EXPECT_TRUE(ValidateBatch(schema, good).ok());

  TupleBatch bad(names_.schema_ptr(), 4);
  Tuple t;
  t.fields.emplace_back(AtomicValue::Number(1));  // too few fields
  bad.Add(std::move(t));
  Status st = ValidateBatch(schema, bad);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(PlanVerifierTest, BatchOrderCheckSpansBatchBoundaries) {
  // Each batch is sorted on n_ID by itself; the second starts before the
  // first ends, which only the carried tail can see.
  const OrderDescriptor by_id = OrderDescriptor::On("n_ID");
  ASSERT_GE(names_.size(), 4);
  TupleBatch first(names_.schema_ptr(), 4);
  first.Add(names_.tuple(2));
  first.Add(names_.tuple(3));
  TupleBatch second(names_.schema_ptr(), 4);
  second.Add(names_.tuple(0));
  second.Add(names_.tuple(1));
  std::vector<AtomicValue> tail;
  ASSERT_TRUE(ValidateBatchOrder(by_id, first, &tail).ok());
  Status st = ValidateBatchOrder(by_id, second, &tail);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("breaks the advertised order ⇃n_ID⇂"),
            std::string::npos)
      << st.ToString();
  // A restarted stream accepts it, and the stream in order passes whole.
  tail.clear();
  EXPECT_TRUE(ValidateBatchOrder(by_id, second, &tail).ok());
  EXPECT_TRUE(ValidateBatchOrder(by_id, first, &tail).ok());
}

// A relation bound under a false declared order: the compiler trusts the
// declaration, so the structural join above it gets no Sort_φ, and the batch
// validator stops execution at the scan that advertises the order. The true
// declaration runs to the end.
TEST_F(PlanVerifierTest, FalseDeclaredOrderFailsBatchValidation) {
  if (!kValidateBatches) GTEST_SKIP() << "batch validation is compiled out";
  NestedRelation reversed(names_.schema_ptr());
  for (int64_t i = names_.size(); i-- > 0;) reversed.Add(names_.tuple(i));
  EvalContext ctx = ctx_;
  ctx.relations["names"] = {&reversed, OrderDescriptor::On("n_ID")};
  ExecContext exec;
  auto bad = ExecutePhysicalPlan(PeopleNamesJoin(), ctx, &exec);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
  EXPECT_NE(bad.status().message().find(
                "batch validation failed in "
                "FusedPipeline_phi[Scan_phi(names)]: tuple 1 breaks the "
                "advertised order ⇃n_ID⇂"),
            std::string::npos)
      << bad.status().ToString();

  ctx.relations["names"] = {&names_, OrderDescriptor::On("n_ID")};
  ExecContext exec_true;
  auto good = ExecutePhysicalPlan(PeopleNamesJoin(), ctx, &exec_true);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_GT(good->size(), 0);
}

// --- Corpus sweep ------------------------------------------------------------

// Every plan the engine compiles over the bib corpus must verify clean, and
// verification must not change any answer: Run with the verifier on equals
// Run with it off, query for query, model for model.
TEST(PlanVerifierCorpusTest, EngineCorpusVerifiesClean) {
  constexpr const char* kBib =
      "<bib>"
      "<book><title>Data on the Web</title><year>1999</year>"
      "<author>Abiteboul</author><author>Suciu</author></book>"
      "<book><title>The Syntactic Web</title><year>2002</year>"
      "<author>Tim</author></book>"
      "</bib>";
  const std::vector<std::string> queries = {
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>",
      "for $x in doc(\"bib\")//book where $x/year = \"1999\" "
      "return <a>{$x/author/text()}</a>",
  };
  for (bool verify : {true, false}) {
    for (const std::string& q : queries) {
      auto d = Document::Parse(kBib);
      ASSERT_TRUE(d.ok());
      Engine::Options o;
      o.verify = verify;
      Engine engine(std::move(d).value(), o);
      ASSERT_TRUE(
          engine.InstallModel(TagPartitionedModel(engine.summary())).ok());
      auto run = engine.Run(q);
      ASSERT_TRUE(run.ok()) << "verify=" << verify << " " << q << ": "
                            << run.status().ToString();
      Engine::Options o2;
      o2.verify = !verify;
      auto d2 = Document::Parse(kBib);
      ASSERT_TRUE(d2.ok());
      Engine other(std::move(d2).value(), o2);
      ASSERT_TRUE(
          other.InstallModel(TagPartitionedModel(other.summary())).ok());
      auto run2 = other.Run(q);
      ASSERT_TRUE(run2.ok());
      EXPECT_EQ(*run, *run2) << q;
    }
  }
}

}  // namespace
}  // namespace uload
