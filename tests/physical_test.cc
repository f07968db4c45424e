// The physical (iterator) engine must agree with the materializing test
// oracle on every plan shape, and the compiler must insert Sort_φ
// enforcers so streaming structural joins receive document-order inputs.
#include <gtest/gtest.h>

#include "eval/tag_collections.h"
#include "exec/physical.h"
#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "storage/storage_models.h"
#include "support/evaluator.h"
#include "verify/plan_verifier.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"

namespace uload {
namespace {

class PhysicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.05));
    summary_ = PathSummary::Build(&doc_);
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    // Tag collections are built in document order; the binder says so.
    ctx_.relations = {{"people", {&people_, OrderDescriptor::On("p_ID")}},
                      {"names", {&names_, OrderDescriptor::On("n_ID")}}};
    ctx_.document = &doc_;
  }

  void CheckAgree(const PlanPtr& plan) {
    auto logical = Evaluate(*plan, ctx_);
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    auto physical = ExecutePhysicalPlan(plan, ctx_);
    ASSERT_TRUE(physical.ok()) << physical.status().ToString();
    EXPECT_TRUE(logical->EqualsUnordered(*physical))
        << "logical rows=" << logical->size()
        << " physical rows=" << physical->size();
  }

  Document doc_;
  PathSummary summary_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
};

TEST_F(PhysicalTest, ScanSelectProject) {
  CheckAgree(LogicalPlan::Scan("people"));
  CheckAgree(LogicalPlan::Select(
      LogicalPlan::Scan("names"),
      Predicate::CompareConst("n_Val", Comparator::kContainsWord,
                              AtomicValue::String("Smith"))));
  CheckAgree(LogicalPlan::Project(LogicalPlan::Scan("names"), {"n_Val"},
                                  /*dedup=*/true));
}

TEST_F(PhysicalTest, StreamingStructuralJoin) {
  PlanPtr join = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kChild, "n_ID", JoinVariant::kInner);
  CheckAgree(join);
  // The compiled tree uses the streaming StackTreeDesc. The tag collections
  // are bound in their declared document order, so the scans advertise it
  // and no Sort_phi enforcer is needed.
  auto phys = CompilePhysicalPlan(join, ctx_);
  ASSERT_TRUE(phys.ok());
  std::string desc = (*phys)->Describe();
  EXPECT_NE(desc.find("StackTreeDesc_phi"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("Sort_phi"), std::string::npos) << desc;

  // Piping one structural join into another breaks the requirement on the
  // ancestor side — the inner join's output is ordered on its *descendant*
  // attribute — so there the compiler must still insert the enforcer.
  PlanPtr piped = LogicalPlan::StructuralJoin(
      join, LogicalPlan::Scan("names"), "p_ID", Axis::kDescendant, "n_ID",
      JoinVariant::kInner);
  auto piped_phys = CompilePhysicalPlan(piped, ctx_);
  ASSERT_TRUE(piped_phys.ok());
  std::string piped_desc = (*piped_phys)->Describe();
  EXPECT_NE(piped_desc.find("Sort_phi"), std::string::npos) << piped_desc;
}

TEST_F(PhysicalTest, SortedInputsSkipEnforcers) {
  // Wrapping the scans in explicit sorts makes the compiler's EnsureOrder
  // a no-op for the outer join... here we verify the descendant stream is
  // emitted in document order.
  PlanPtr join = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kDescendant, "n_ID", JoinVariant::kInner);
  auto phys = CompilePhysicalPlan(join, ctx_);
  ASSERT_TRUE(phys.ok());
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok());
  int idx = rel->schema().IndexOf("n_ID");
  ASSERT_GE(idx, 0);
  for (int64_t i = 1; i < rel->size(); ++i) {
    EXPECT_LE(rel->tuple(i - 1).fields[idx].atom().sid().pre,
              rel->tuple(i).fields[idx].atom().sid().pre);
  }
}

TEST_F(PhysicalTest, JoinVariantsAgree) {
  for (JoinVariant v : {JoinVariant::kInner, JoinVariant::kSemi,
                        JoinVariant::kLeftOuter, JoinVariant::kNestJoin,
                        JoinVariant::kNestOuter}) {
    CheckAgree(LogicalPlan::ValueJoin(LogicalPlan::Scan("people"),
                                      LogicalPlan::Scan("names"), "p_Val",
                                      Comparator::kEq, "n_Val", v, "grp"));
    CheckAgree(LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                           LogicalPlan::Scan("names"), "p_ID",
                                           Axis::kDescendant, "n_ID", v,
                                           "grp"));
  }
}

// HashJoin_φ must decide equality exactly as Select[l = r] over Product_φ
// does, with operator==: numbers that print alike are still different, and
// a string that reads as a number equals that number. Keying the build side
// on ToString() got both wrong (0.1234561 and 0.1234562 both print as
// 0.123456; "12" prints quoted). The test oracle must agree too.
TEST_F(PhysicalTest, HashJoinDecidesEqualityLikeSelect) {
  NestedRelation l(Schema::Make({Attribute::Atomic("l_Val")}));
  for (const AtomicValue& v :
       {AtomicValue::Number(0.1234561), AtomicValue::String("12"),
        AtomicValue::Null(), AtomicValue::String("x")}) {
    l.Add(Tuple{{Field(v)}});
  }
  NestedRelation r(Schema::Make({Attribute::Atomic("r_Val")}));
  for (const AtomicValue& v :
       {AtomicValue::Number(0.1234562), AtomicValue::Number(12),
        AtomicValue::Null(), AtomicValue::String("x")}) {
    r.Add(Tuple{{Field(v)}});
  }
  EvalContext ctx;
  ctx.relations = {{"l", &l}, {"r", &r}};
  PlanPtr join = LogicalPlan::ValueJoin(LogicalPlan::Scan("l"),
                                        LogicalPlan::Scan("r"), "l_Val",
                                        Comparator::kEq, "r_Val",
                                        JoinVariant::kInner);
  PlanPtr select = LogicalPlan::Select(
      LogicalPlan::Product(LogicalPlan::Scan("l"), LogicalPlan::Scan("r")),
      Predicate::CompareAttrs("l_Val", Comparator::kEq, "r_Val"));
  auto phys = CompilePhysicalPlan(join, ctx);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_NE((*phys)->label().find("HashJoin_phi"), std::string::npos);
  auto joined = ExecutePhysical(phys->get());
  auto selected = ExecutePhysicalPlan(select, ctx);
  auto oracle = Evaluate(*join, ctx);
  ASSERT_TRUE(joined.ok() && selected.ok() && oracle.ok());
  ASSERT_EQ(selected->size(), 2);  // ("12", 12) and ("x", "x")
  EXPECT_EQ(joined->ToString(), selected->ToString());
  EXPECT_EQ(oracle->ToString(), selected->ToString());
}

// The StackTree joins accept Dewey ids: document order is Dewey order and
// containment is the prefix test. Ids of different kinds never join.
TEST_F(PhysicalTest, DeweyStructuralJoinsAgree) {
  NestedRelation dpeople = TagCollection(
      doc_, "person", {"p", false, false, false, IdKind::kParental});
  NestedRelation dnames = TagCollection(
      doc_, "name", {"n", false, true, false, IdKind::kParental});
  ctx_.relations["dpeople"] = {&dpeople, OrderDescriptor::On("p_ID")};
  ctx_.relations["dnames"] = {&dnames, OrderDescriptor::On("n_ID")};
  for (Axis axis : {Axis::kChild, Axis::kDescendant}) {
    for (JoinVariant v : {JoinVariant::kInner, JoinVariant::kSemi,
                          JoinVariant::kLeftOuter, JoinVariant::kNestJoin,
                          JoinVariant::kNestOuter}) {
      PlanPtr plan = LogicalPlan::StructuralJoin(
          LogicalPlan::Scan("dpeople"), LogicalPlan::Scan("dnames"), "p_ID",
          axis, "n_ID", v, "grp");
      CheckAgree(plan);
      auto dewey = ExecutePhysicalPlan(plan, ctx_);
      auto sid = ExecutePhysicalPlan(
          LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                      LogicalPlan::Scan("names"), "p_ID",
                                      axis, "n_ID", v, "grp"),
          ctx_);
      ASSERT_TRUE(dewey.ok() && sid.ok());
      EXPECT_EQ(dewey->size(), sid->size());
    }
  }
  auto mixed = ExecutePhysicalPlan(
      LogicalPlan::StructuralJoin(LogicalPlan::Scan("dpeople"),
                                  LogicalPlan::Scan("names"), "p_ID",
                                  Axis::kDescendant, "n_ID",
                                  JoinVariant::kInner),
      ctx_);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed->size(), 0);
}

// A structural join on an attribute inside a nested collection has no
// streaming implementation: compilation says so instead of falling back.
TEST_F(PhysicalTest, NestedAttributeStructuralJoinIsNotImplemented) {
  PlanPtr grouped = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kDescendant, "n_ID", JoinVariant::kNestOuter, "grp");
  PlanPtr plan = LogicalPlan::StructuralJoin(
      grouped, LogicalPlan::Scan("names"), "grp.n_ID", Axis::kDescendant,
      "n_ID", JoinVariant::kSemi);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_FALSE(phys.ok());
  EXPECT_EQ(phys.status().code(), StatusCode::kNotImplemented)
      << phys.status().ToString();
  auto schema = VerifyLogicalPlan(*plan, ctx_);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kNotImplemented);
}

TEST_F(PhysicalTest, ProductUnionNavigate) {
  CheckAgree(LogicalPlan::Product(LogicalPlan::Scan("people"),
                                  LogicalPlan::Scan("names")));
  CheckAgree(LogicalPlan::Union(LogicalPlan::Scan("names"),
                                LogicalPlan::Scan("names")));
  NavEmit emit;
  emit.id = true;
  emit.val = true;
  emit.prefix = "em";
  CheckAgree(LogicalPlan::Navigate(LogicalPlan::Scan("people"), "p_ID",
                                   {NavStep{Axis::kChild, "emailaddress"}},
                                   emit, JoinVariant::kLeftOuter));
}

TEST_F(PhysicalTest, RewrittenPlansExecutePhysically) {
  // End to end: compile the rewriter's output through the physical engine.
  Catalog catalog;
  for (NamedXam& v : TagPartitionedModel(summary_)) {
    ASSERT_TRUE(catalog.AddXam(v.name, std::move(v.xam), doc_).ok());
  }
  std::vector<NamedXam> defs;
  for (const auto& v : catalog.views()) {
    defs.push_back({v->name(), v->definition()});
  }
  Rewriter rewriter(&summary_, defs);
  auto q = ParseXam(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  ASSERT_TRUE(q.ok());
  auto r = rewriter.RewriteBest(*q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EvalContext ctx = catalog.MakeEvalContext(&doc_);
  auto logical = Evaluate(*r->plan, ctx);
  auto physical = ExecutePhysicalPlan(r->plan, ctx);
  ASSERT_TRUE(logical.ok());
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_TRUE(logical->EqualsUnordered(*physical));
}

TEST_F(PhysicalTest, ReopenIsRepeatable) {
  PlanPtr plan = LogicalPlan::Select(
      LogicalPlan::Scan("people"),
      Predicate::NotNull("p_ID"));
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok());
  auto first = ExecutePhysical(phys->get());
  auto second = ExecutePhysical(phys->get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->Equals(*second));
}

}  // namespace
}  // namespace uload
