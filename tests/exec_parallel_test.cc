// Differential and property tests for the parallel exchange executor
// (exec/exchange.h): randomized XAM patterns are compiled into logical
// plans and executed three ways — materializing evaluator, serial batched
// engine, and parallel engine across thread budgets and batch sizes. The
// evaluator is compared canonically (sorted byte-for-byte); every parallel
// configuration must reproduce the serial engine's output *exactly*,
// because ExchangeMerge re-establishes the order descriptor and breaks
// ties toward lower worker indexes.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "eval/tag_collections.h"
#include "exec/exchange.h"
#include "exec/physical.h"
#include "verify/plan_verifier.h"
#include "workload/pattern_gen.h"
#include "workload/xmark.h"

namespace uload {
namespace {

// --- BoundedBatchQueue primitives -------------------------------------------

TupleBatch OneTupleBatch(int64_t v) {
  TupleBatch b(Schema::Make({Attribute::Atomic("x")}), 4);
  Tuple t;
  t.fields.emplace_back(AtomicValue::Number(static_cast<double>(v)));
  b.Add(std::move(t));
  return b;
}

TEST(BoundedBatchQueueTest, FifoAcrossThreads) {
  BoundedBatchQueue q(/*capacity=*/2, /*producers=*/1);
  constexpr int kBatches = 100;
  std::thread producer([&] {
    for (int i = 0; i < kBatches; ++i) ASSERT_TRUE(q.Push(OneTupleBatch(i)));
    q.ProducerDone();
  });
  for (int i = 0; i < kBatches; ++i) {
    std::optional<TupleBatch> b = q.Pop();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->tuple(0).fields[0].atom().as_number(), i);
  }
  EXPECT_FALSE(q.Pop().has_value());
  producer.join();
}

TEST(BoundedBatchQueueTest, ShutdownUnblocksProducer) {
  BoundedBatchQueue q(/*capacity=*/1, /*producers=*/1);
  ASSERT_TRUE(q.Push(OneTupleBatch(0)));
  std::thread producer([&] {
    // The queue is full: this Push blocks until Shutdown rejects it.
    EXPECT_FALSE(q.Push(OneTupleBatch(1)));
    q.ProducerDone();
  });
  q.Shutdown();
  producer.join();
}

TEST(BoundedBatchQueueTest, PopDrainsAfterProducersDone) {
  BoundedBatchQueue q(/*capacity=*/4, /*producers=*/2);
  ASSERT_TRUE(q.Push(OneTupleBatch(1)));
  q.ProducerDone();
  q.ProducerDone();
  EXPECT_TRUE(q.Pop().has_value());
  EXPECT_FALSE(q.Pop().has_value());
}

// --- Fixture over an XMark document -----------------------------------------

class ExecParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.02));
    summary_ = PathSummary::Build(&doc_);
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    ctx_.relations = {{"people", &people_}, {"names", &names_}};
    ctx_.document = &doc_;
  }

  PlanPtr PeopleNamesJoin() {
    return LogicalPlan::StructuralJoin(
        LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
        Axis::kDescendant, "n_ID", JoinVariant::kInner);
  }

  // Compiles `plan` into a logical plan over fresh base tag collections,
  // mirroring the XAM semantics (eval/xam_eval.cc): one collection per
  // pattern node, σ for the value formula, structural joins folding the
  // children left-to-right, a product across ⊤'s branches.
  PlanPtr BuildPlan(const Xam& xam, EvalContext* ctx) {
    PlanPtr plan;
    for (const XamEdge& e : xam.node(kXamRoot).edges) {
      PlanPtr sub = SubtreePlan(xam, e.child, ctx);
      plan = plan == nullptr
                 ? std::move(sub)
                 : LogicalPlan::Product(std::move(plan), std::move(sub));
    }
    return plan;
  }

  PlanPtr SubtreePlan(const Xam& xam, XamNodeId id, EvalContext* ctx) {
    const XamNode& n = xam.node(id);
    TagCollectionOptions opts;
    opts.prefix = n.name;
    opts.with_tag = n.stores_tag;
    opts.with_val = n.stores_val || !n.val_formula.IsTrue();
    opts.with_cont = n.stores_cont;
    opts.id_kind = n.id_kind;
    base_rels_.push_back(std::make_unique<NestedRelation>(
        n.is_attribute
            ? AttributeCollection(
                  doc_,
                  n.tag_value.empty() ? "" : n.tag_value.substr(1), opts)
            : TagCollection(doc_, n.tag_value, opts)));
    std::string rname = "base" + std::to_string(base_rels_.size());
    ctx->relations[rname] = base_rels_.back().get();
    PlanPtr plan = LogicalPlan::Scan(rname);
    if (!n.val_formula.IsTrue()) {
      plan = LogicalPlan::Select(std::move(plan),
                                 n.val_formula.ToPredicate(n.name + "_Val"));
    }
    for (const XamEdge& e : n.edges) {
      PlanPtr child = SubtreePlan(xam, e.child, ctx);
      plan = LogicalPlan::StructuralJoin(
          std::move(plan), std::move(child), n.name + "_ID", e.axis,
          xam.node(e.child).name + "_ID", e.variant, xam.node(e.child).name);
    }
    return plan;
  }

  // The core differential check: evaluator vs serial engine (canonical
  // order), then serial vs every (thread budget × batch size) combination
  // (exact order — ExchangeMerge keeps parallel execution deterministic).
  void CheckDifferential(const PlanPtr& plan, const EvalContext& ctx,
                         const std::string& what) {
    // Static analysis leg: every generated plan must pass the logical
    // verifier before anything executes. (The physical verifier runs inside
    // every CompilePhysicalPlan below — verify_plans defaults on — so each
    // compiled tree, serial and parallel, is order/placement-checked too.)
    auto verified = VerifyLogicalPlan(*plan, ctx);
    ASSERT_TRUE(verified.ok()) << what << ": " << verified.status().ToString();

    auto reference = Evaluate(*plan, ctx);
    ASSERT_TRUE(reference.ok()) << what << ": " << reference.status().ToString();

    ExecContext serial_exec;
    serial_exec.set_thread_budget(1);
    auto serial = ExecutePhysicalPlan(plan, ctx, &serial_exec);
    ASSERT_TRUE(serial.ok()) << what << ": " << serial.status().ToString();

    NestedRelation canonical_ref = *reference;
    NestedRelation canonical_serial = *serial;
    canonical_ref.Sort();
    canonical_serial.Sort();
    ASSERT_TRUE(canonical_ref.Equals(canonical_serial))
        << what << ": evaluator rows=" << reference->size()
        << " physical rows=" << serial->size();

    for (size_t budget : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
        ExecContext exec(batch);
        exec.set_thread_budget(budget);
        auto got = ExecutePhysicalPlan(plan, ctx, &exec);
        ASSERT_TRUE(got.ok()) << what << " budget=" << budget
                              << " batch=" << batch << ": "
                              << got.status().ToString();
        ASSERT_TRUE(serial->Equals(*got))
            << what << " budget=" << budget << " batch=" << batch
            << ": output diverges from serial (rows " << got->size()
            << " vs " << serial->size() << ")";
      }
    }
  }

  Document doc_;
  PathSummary summary_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
  std::vector<std::unique_ptr<NestedRelation>> base_rels_;
};

// --- ParallelScan ------------------------------------------------------------

TEST_F(ExecParallelTest, ParallelScanPartitionsCoverRelation) {
  for (size_t nparts : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                        size_t{1000000}}) {
    NestedRelation all(names_.schema_ptr());
    for (size_t part = 0; part < nparts; ++part) {
      ParallelScanPhys scan(&names_, "names", part, nparts);
      auto rel = ExecutePhysical(&scan);
      ASSERT_TRUE(rel.ok());
      for (const Tuple& t : rel->tuples()) all.Add(t);
      if (nparts > static_cast<size_t>(names_.size()) &&
          part > static_cast<size_t>(names_.size())) {
        break;  // remaining slices are empty by construction; sample a few
      }
    }
    if (nparts <= static_cast<size_t>(names_.size())) {
      EXPECT_TRUE(all.Equals(names_)) << "nparts=" << nparts;
    }
  }
}

TEST_F(ExecParallelTest, ParallelScanAdoptsProvenOrder) {
  ParallelScanPhys scan(&names_, "names", 0, 2);
  EXPECT_TRUE(scan.order().empty());
  EXPECT_TRUE(scan.TryAdoptOrder(OrderDescriptor::On("n_ID")));
  EXPECT_EQ(scan.order().keys()[0].attr, "n_ID");
  // An order the relation does not satisfy is not adopted.
  ParallelScanPhys scan2(&names_, "names", 0, 2);
  EXPECT_FALSE(scan2.TryAdoptOrder(OrderDescriptor::On("n_Val")));
}

// --- Exchange placement and determinism --------------------------------------

TEST_F(ExecParallelTest, ThreadBudgetOneStaysSerial) {
  ExecContext exec;
  exec.set_thread_budget(1);
  auto phys = CompilePhysicalPlan(PeopleNamesJoin(), ctx_, &exec);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ((*phys)->Describe().find("Exchange"), std::string::npos)
      << (*phys)->Describe();
}

TEST_F(ExecParallelTest, StructuralJoinParallelPlacement) {
  ExecContext exec;
  exec.set_thread_budget(4);
  auto phys = CompilePhysicalPlan(PeopleNamesJoin(), ctx_, &exec);
  ASSERT_TRUE(phys.ok());
  std::string desc = (*phys)->Describe();
  EXPECT_NE(desc.find("ExchangeMerge_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("ParallelScan_phi"), std::string::npos) << desc;
  EXPECT_NE(desc.find("StackTreeDesc_phi"), std::string::npos) << desc;
  // Document-ordered scans prove their order; no replicated Sort_phi.
  EXPECT_EQ(desc.find("Sort_phi"), std::string::npos) << desc;
}

TEST_F(ExecParallelTest, ParallelJoinBitIdenticalToSerial) {
  PlanPtr join = PeopleNamesJoin();
  ExecContext serial_exec;
  serial_exec.set_thread_budget(1);
  auto serial = ExecutePhysicalPlan(join, ctx_, &serial_exec);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->size(), 0);
  for (size_t budget : {size_t{2}, size_t{4}, size_t{8}}) {
    ExecContext exec;
    exec.set_thread_budget(budget);
    auto parallel = ExecutePhysicalPlan(join, ctx_, &exec);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(serial->Equals(*parallel)) << "budget=" << budget;
  }
}

TEST_F(ExecParallelTest, ParallelJoinReopenIsRepeatable) {
  ExecContext exec;
  exec.set_thread_budget(4);
  auto phys = CompilePhysicalPlan(PeopleNamesJoin(), ctx_, &exec);
  ASSERT_TRUE(phys.ok());
  auto first = ExecutePhysical(phys->get());
  auto second = ExecutePhysical(phys->get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->Equals(*second));
}

TEST_F(ExecParallelTest, AnalyzeRollsUpWorkerCounters) {
  ExecContext exec;
  exec.set_thread_budget(4);
  auto rel = ExecutePhysicalPlan(PeopleNamesJoin(), ctx_, &exec);
  ASSERT_TRUE(rel.ok());
  // After Close, workers 1..N-1 are folded into the template pipeline's
  // slots, so the partitioned scan's counter shows the whole relation.
  int64_t scan_tuples = 0;
  int64_t join_tuples = 0;
  for (const OperatorMetrics& m : exec.MetricsSnapshot()) {
    if (m.label.find("ParallelScan_phi") != std::string::npos) {
      scan_tuples += m.tuples_produced;
    }
    if (m.label.find("StackTreeDesc_phi") != std::string::npos) {
      join_tuples += m.tuples_produced;
    }
  }
  EXPECT_EQ(scan_tuples, names_.size());
  EXPECT_EQ(join_tuples, rel->size());
}

// --- Randomized differential harness -----------------------------------------

TEST_F(ExecParallelTest, RandomizedPatternsDifferential) {
  constexpr int kPatterns = 200;
  PatternGenOptions opts;
  int checked = 0;
  for (uint32_t seed = 1; seed <= kPatterns; ++seed) {
    PatternGenerator gen(&summary_, seed);
    Xam pattern = gen.Generate(opts);
    EvalContext ctx;
    ctx.document = &doc_;
    PlanPtr plan = BuildPlan(pattern, &ctx);
    ASSERT_NE(plan, nullptr) << "seed=" << seed;
    CheckDifferential(plan, ctx, "seed=" + std::to_string(seed));
    ++checked;
  }
  EXPECT_EQ(checked, kPatterns);
}

}  // namespace
}  // namespace uload
