// Pipeline fusion tests (exec/fusion.h): every pipeline-breaker kind must
// split the fused chain, and nothing else does — bare sources are zero-step
// pipelines, and first-wins dedup and parent derivation are steps; fused
// execution must agree with the materializing test oracle; the static
// verifier must reject a seeded mis-fused plan (corrupted boundary schema /
// advertised order); the Explain surface must render the fused chain and
// DescribeAnalyze must attribute tuples to the chain members; and the
// governor — deadline, cancellation, memory accounting, fault injection at
// member sites — must reach through the fused loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/tag_collections.h"
#include "exec/fusion.h"
#include "exec/memory_tracker.h"
#include "exec/physical.h"
#include "support/evaluator.h"
#include "verify/plan_verifier.h"
#include "workload/xmark.h"

namespace uload {
namespace {

class FusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.05));
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    dpeople_ = TagCollection(doc_, "person",
                             {"q", false, false, false, IdKind::kParental});
    dnames_ = TagCollection(doc_, "name",
                            {"d", false, true, false, IdKind::kParental});
    ctx_.relations = {{"people", &people_},
                      {"names", &names_},
                      {"dpeople", &dpeople_},
                      {"dnames", &dnames_}};
    ctx_.document = &doc_;
  }

  static PredicatePtr SmithPred() {
    return Predicate::CompareConst("n_Val", Comparator::kContainsWord,
                                   AtomicValue::String("Smith"));
  }

  PlanPtr NavChain() {
    NavEmit emit;
    emit.id = true;
    emit.val = true;
    emit.prefix = "em";
    return LogicalPlan::Navigate(
        LogicalPlan::PrefixNames(LogicalPlan::Scan("people"), "x"), "xp_ID",
        {NavStep{Axis::kChild, "emailaddress"}}, emit,
        JoinVariant::kLeftOuter);
  }

  // Executes `plan` through the physical engine and the materializing
  // evaluator; both must succeed and agree tuple for tuple. Returns the
  // compiled tree's Describe().
  std::string CheckAgainstEvaluator(const PlanPtr& plan) {
    ExecContext exec;
    auto phys = CompilePhysicalPlan(plan, ctx_, &exec);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    if (!phys.ok()) return std::string();
    auto got = ExecutePhysical(phys->get());
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    auto want = Evaluate(*plan, ctx_);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (got.ok() && want.ok()) {
      EXPECT_TRUE(got->Equals(*want))
          << "physical rows=" << got->size() << " evaluator rows="
          << want->size() << "\n" << (*phys)->Describe();
    }
    return (*phys)->Describe();
  }

  Document doc_;
  NestedRelation people_;
  NestedRelation names_;
  // Dewey-id (IdKind::kParental) collections.
  NestedRelation dpeople_;
  NestedRelation dnames_;
  EvalContext ctx_;
};

// --- Chain formation ---------------------------------------------------------

TEST_F(FusionTest, GoldenDescribeForScanSelectProject) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}, /*dedup=*/false);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  // The whole chain — scan included — is one operator; its label names every
  // member in execution order.
  EXPECT_EQ((*phys)->Describe(),
            "FusedPipeline_phi[Scan_phi(names) -> Select_phi[n_Val "
            "contains \"Smith\"] -> Project_phi]\n");
  EXPECT_EQ((*phys)->kind(), PhysOpKind::kFusedPipeline);
  EXPECT_TRUE((*phys)->children().empty());
}

TEST_F(FusionTest, FusedChainsMatchTheEvaluator) {
  // Select over a scan.
  CheckAgainstEvaluator(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()));
  // Select → Project (drops a column the predicate needed).
  CheckAgainstEvaluator(LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_ID"}, /*dedup=*/false));
  // Rename → Navigate → Select over the navigated value.
  CheckAgainstEvaluator(LogicalPlan::Select(
      NavChain(), Predicate::NotNull("em_ID")));
  // Retype at the top of a chain.
  std::vector<Attribute> renamed;
  for (const Attribute& a : names_.schema().attrs()) {
    renamed.push_back(Attribute::Atomic("r_" + a.name));
  }
  CheckAgainstEvaluator(LogicalPlan::Retype(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      Schema::Make(std::move(renamed))));
}

TEST_F(FusionTest, BareSourceIsAZeroStepPipeline) {
  auto phys = CompilePhysicalPlan(LogicalPlan::Scan("names"), ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_EQ((*phys)->Describe(), "FusedPipeline_phi[Scan_phi(names)]\n");
  ASSERT_EQ((*phys)->kind(), PhysOpKind::kFusedPipeline);
  EXPECT_EQ(static_cast<FusedPipelinePhys*>(phys->get())->step_count(), 0u);
  EXPECT_TRUE(VerifyPhysicalPlan(**phys).ok());
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(rel->Equals(names_));
}

TEST_F(FusionTest, DeriveParentIsAFusedStep) {
  // Dewey ids derive their ancestors in place: DeriveParent is one more
  // chain member, not a pipeline source of its own.
  PlanPtr derive = LogicalPlan::DeriveParent(LogicalPlan::Scan("dnames"),
                                             "d_ID", "d_anc", 3);
  std::string desc = CheckAgainstEvaluator(
      LogicalPlan::Select(derive, Predicate::NotNull("d_anc")));
  EXPECT_EQ(desc,
            "FusedPipeline_phi[Scan_phi(dnames) -> DeriveParent_phi[d_ID -> "
            "d_anc @depth 3] -> Select_phi[d_anc is not null]]\n");
  // The rewriter's ancestor-derivation shape: an equality join of the
  // ancestors' ids with the derived column.
  desc = CheckAgainstEvaluator(LogicalPlan::ValueJoin(
      LogicalPlan::Scan("dpeople"), derive, "q_ID", Comparator::kEq,
      "d_anc"));
  EXPECT_NE(desc.find("DeriveParent_phi"), std::string::npos) << desc;
  // (pre, post, depth) ids cannot derive their ancestors.
  PlanPtr sid_derive =
      LogicalPlan::DeriveParent(LogicalPlan::Scan("names"), "n_ID", "anc", 2);
  auto phys = CompilePhysicalPlan(sid_derive, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto rel = ExecutePhysical(phys->get());
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kTypeError);
}

TEST_F(FusionTest, DescribeAnalyzeAttributesTuplesToChainMembers) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      {"n_Val"}, /*dedup=*/false);
  ExecContext exec;
  auto phys = CompilePhysicalPlan(plan, ctx_, &exec);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok());
  ASSERT_GT(rel->size(), 0);
  std::string analyzed = (*phys)->DescribeAnalyze();
  // Each member renders its own attribution line with its label and the
  // number of tuples flowing out of it.
  EXPECT_NE(analyzed.find("~ Scan_phi(names)"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("~ Select_phi"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("~ Project_phi"), std::string::npos) << analyzed;
  std::string expect_count = "tuples=" + std::to_string(rel->size());
  EXPECT_NE(analyzed.find(expect_count), std::string::npos) << analyzed;
}

// --- Breakers ----------------------------------------------------------------

// Every pipeline-breaker kind must terminate the fused chain: the breaker
// keeps its own operator, chains on both sides still fuse, and the result
// is unchanged.
TEST_F(FusionTest, SortBreaksTheChain) {
  // n_Val order is not provable from the scan, so the enforcer must stay.
  std::string desc = CheckAgainstEvaluator(LogicalPlan::SortOp(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}));
  EXPECT_NE(desc.find("Sort_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi["), std::string::npos) << desc;
}

TEST_F(FusionTest, StructuralJoinBreaksTheChain) {
  std::string desc = CheckAgainstEvaluator(LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"),
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()), "p_ID",
      Axis::kDescendant, "n_ID", JoinVariant::kInner));
  EXPECT_NE(desc.find("StackTreeDesc_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(names)"),
            std::string::npos)
      << desc;
}

TEST_F(FusionTest, ValueJoinBuildBreaksTheChain) {
  std::string desc = CheckAgainstEvaluator(LogicalPlan::ValueJoin(
      LogicalPlan::Select(LogicalPlan::Scan("people"),
                          Predicate::NotNull("p_Val")),
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_Val")),
      "p_Val", Comparator::kEq, "n_Val", JoinVariant::kInner));
  EXPECT_NE(desc.find("HashJoin"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(people)"),
            std::string::npos)
      << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(names)"), std::string::npos)
      << desc;
}

TEST_F(FusionTest, ProductAndUnionBreakTheChain) {
  std::string desc = CheckAgainstEvaluator(LogicalPlan::Product(
      LogicalPlan::Select(LogicalPlan::Scan("people"),
                          Predicate::NotNull("p_ID")),
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID"))));
  EXPECT_NE(desc.find("Product_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi[Scan_phi(people)"),
            std::string::npos)
      << desc;

  desc = CheckAgainstEvaluator(LogicalPlan::Union(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred())));
  EXPECT_NE(desc.find("Union_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("FusedPipeline_phi["), std::string::npos) << desc;
}

TEST_F(FusionTest, DedupProjectionFuses) {
  // First-wins dedup is a chain step: it keeps its seen-set inside the
  // fused loop, and the chain continues above it.
  PlanPtr plan = LogicalPlan::Select(
      LogicalPlan::Project(
          LogicalPlan::Select(LogicalPlan::Scan("names"),
                              Predicate::NotNull("n_ID")),
          {"n_Val"}, /*dedup=*/true),
      Predicate::NotNull("n_Val"));
  std::string desc = CheckAgainstEvaluator(plan);
  EXPECT_EQ(desc,
            "FusedPipeline_phi[Scan_phi(names) -> Select_phi[n_ID is not "
            "null] -> Project0_phi -> Select_phi[n_Val is not null]]\n");

  // The seen-set is charged to the query's tracker, attributed to the
  // dedup member, and returned when the pipeline closes.
  MemoryTracker mem("dedup", int64_t{1} << 30);
  ExecContext exec(/*batch_size=*/4);
  exec.set_memory_tracker(&mem);
  auto phys = CompilePhysicalPlan(plan, ctx_, &exec);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_GT(rel->size(), 1);
  EXPECT_EQ(mem.used(), 0);
  EXPECT_GT(mem.peak(), 0);
  std::string analyzed = (*phys)->DescribeAnalyze();
  size_t line = analyzed.find("~ Project0_phi");
  ASSERT_NE(line, std::string::npos) << analyzed;
  std::string member = analyzed.substr(line, analyzed.find('\n', line) - line);
  EXPECT_NE(member.find("tuples=" + std::to_string(rel->size())),
            std::string::npos)
      << analyzed;
  EXPECT_NE(member.find("mem="), std::string::npos) << analyzed;
}

// --- Verification ------------------------------------------------------------

TEST_F(FusionTest, FusedPlansPassStaticVerification) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(NavChain(), Predicate::NotNull("em_ID")),
      {"em_Val"}, /*dedup=*/false);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  ASSERT_NE((*phys)->Describe().find("FusedPipeline_phi"), std::string::npos);
  EXPECT_TRUE(VerifyPhysicalPlan(**phys).ok());
}

TEST_F(FusionTest, MisfusedPlanFailsVerification) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"), SmithPred()),
      {"n_Val"}, /*dedup=*/false);
  auto make_fused = [&]() {
    auto phys = CompilePhysicalPlan(plan, ctx_);
    EXPECT_TRUE(phys.ok()) << phys.status().ToString();
    EXPECT_EQ((*phys)->kind(), PhysOpKind::kFusedPipeline);
    return std::move(*phys);
  };

  // (a) The advertised composed schema drifts from what the chain derives.
  {
    PhysicalPtr op = make_fused();
    auto* f = static_cast<FusedPipelinePhys*>(op.get());
    f->CorruptSchemaForTesting(Schema::Make({Attribute::Atomic("bogus")}));
    Status st = VerifyPhysicalPlan(*op);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fused"), std::string::npos)
        << st.ToString();
  }
  // (b) A recorded step boundary schema is not what re-derivation yields.
  {
    PhysicalPtr op = make_fused();
    auto* f = static_cast<FusedPipelinePhys*>(op.get());
    f->CorruptStepSchemaForTesting(
        0, Schema::Make({Attribute::Atomic("bogus")}));
    Status st = VerifyPhysicalPlan(*op);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("fused"), std::string::npos)
        << st.ToString();
  }
  // (c) The fused operator claims an order the chain cannot prove.
  {
    PhysicalPtr op = make_fused();
    auto* f = static_cast<FusedPipelinePhys*>(op.get());
    f->CorruptOrderForTesting(OrderDescriptor::On("n_Val"));
    Status st = VerifyPhysicalPlan(*op);
    EXPECT_FALSE(st.ok()) << "claimed unprovable order passed verification";
  }
}

// --- Governor through the fused loop ----------------------------------------

TEST_F(FusionTest, MemberFaultSitesStillInjectable) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      {"n_Val"}, /*dedup=*/false);
  // Address each chain member by its label: fusion keeps every member's
  // site reachable for the sweep.
  for (const char* target : {"Scan_phi", "Select_phi", "Project_phi"}) {
    for (FaultSpec::Site site :
         {FaultSpec::Site::kOpen, FaultSpec::Site::kNextBatch}) {
      ExecContext exec;
      FaultSpec f;
      f.op_substring = target;
      f.site = site;
      f.call_index = 0;
      exec.set_fault(f);
      auto got = ExecutePhysicalPlan(plan, ctx_, &exec);
      ASSERT_FALSE(got.ok()) << target;
      EXPECT_EQ(got.status().code(), StatusCode::kInternal) << target;
      EXPECT_NE(got.status().message().find("injected fault"),
                std::string::npos)
          << target << ": " << got.status().ToString();
      EXPECT_NE(got.status().message().find(target), std::string::npos)
          << got.status().ToString();
    }
  }
}

TEST_F(FusionTest, DeadlineReachesIntoTheFusedLoop) {
  PlanPtr plan = LogicalPlan::Select(LogicalPlan::Scan("names"),
                                     Predicate::NotNull("n_ID"));
  ExecContext exec;
  auto control = std::make_shared<QueryControl>();
  control->set_deadline_ns(1);  // already expired
  exec.set_control(control);
  auto got = ExecutePhysicalPlan(plan, ctx_, &exec);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().ToString();
}

TEST_F(FusionTest, ReopenIsRepeatable) {
  PlanPtr plan = LogicalPlan::Project(
      LogicalPlan::Select(NavChain(), Predicate::NotNull("em_ID")),
      {"em_Val"}, /*dedup=*/false);
  auto phys = CompilePhysicalPlan(plan, ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  auto first = ExecutePhysical(phys->get());
  auto second = ExecutePhysical(phys->get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->Equals(*second));
}

}  // namespace
}  // namespace uload
