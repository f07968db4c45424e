// Differential test for the batch-at-a-time physical engine: for every plan
// in the corpus, the batched executor must produce the same relation as the
// materializing Evaluate(), and its own output must be byte-identical across
// batch sizes 1, 2, and 1024 — the sizes that exercise batch-boundary edges
// (every-tuple-a-boundary, odd split, everything-in-one-batch). Randomized
// XAM patterns run the same check at batch sizes 1, 7 and 1024.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/tag_collections.h"
#include "exec/physical.h"
#include "rewrite/query_rewriter.h"
#include "storage/columnar/columnar_document.h"
#include "storage/storage_models.h"
#include "storage/store.h"
#include "support/evaluator.h"
#include "verify/plan_verifier.h"
#include "workload/pattern_gen.h"
#include "workload/xmark.h"
#include "xam/xam_parser.h"
#include "xquery/parser.h"

namespace uload {
namespace {

const size_t kBatchSizes[] = {1, 2, TupleBatch::kDefaultCapacity};

constexpr const char* kBib =
    "<bib>"
    "<book><title>Data on the Web</title><year>1999</year>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><year>2002</year>"
    "<author>Tim</author></book>"
    "<phdthesis><title>XAMs</title><year>2007</year>"
    "<author>Arion</author></phdthesis>"
    "</bib>";

// Runs `plan` through the physical engine at every batch size and checks
// (a) bag equality with the materializing evaluator, and (b) byte-identical
// output (schema, tuple order, tuple contents) across all batch sizes.
void CheckPlanDifferential(const PlanPtr& plan, const EvalContext& ctx) {
  auto materialized = Evaluate(*plan, ctx);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

  std::vector<NestedRelation> per_size;
  for (size_t bs : kBatchSizes) {
    ExecContext exec(bs);
    auto r = ExecutePhysicalPlan(plan, ctx, &exec);
    ASSERT_TRUE(r.ok()) << "batch=" << bs << ": " << r.status().ToString();
    EXPECT_TRUE(materialized->EqualsUnordered(*r))
        << "batch=" << bs << " evaluator rows=" << materialized->size()
        << " physical rows=" << r->size();
    per_size.push_back(std::move(*r));
  }
  for (size_t i = 1; i < per_size.size(); ++i) {
    EXPECT_TRUE(per_size[0].Equals(per_size[i]))
        << "batch=" << kBatchSizes[i] << " diverges from batch="
        << kBatchSizes[0];
    EXPECT_EQ(per_size[0].ToString(), per_size[i].ToString());
  }
}

class ExecBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.05));
    people_ = TagCollection(doc_, "person", {"p", true, true, false});
    names_ = TagCollection(doc_, "name", {"n", true, true, false});
    ctx_.relations = {{"people", {&people_, OrderDescriptor::On("p_ID")}},
                      {"names", {&names_, OrderDescriptor::On("n_ID")}}};
    ctx_.document = &doc_;
  }

  Document doc_;
  NestedRelation people_;
  NestedRelation names_;
  EvalContext ctx_;
};

TEST_F(ExecBatchTest, ScanSelectProjectSort) {
  CheckPlanDifferential(LogicalPlan::Scan("people"), ctx_);
  CheckPlanDifferential(
      LogicalPlan::Select(LogicalPlan::Scan("names"),
                          Predicate::NotNull("n_ID")),
      ctx_);
  CheckPlanDifferential(LogicalPlan::Project(LogicalPlan::Scan("names"),
                                             {"n_Val"}, /*dedup=*/true),
                        ctx_);
}

// Every join that emits through the shared variant rule (StackTree joins,
// HashJoin_φ, NestedLoopJoin_φ, Navigate_φ) under all five variants. Each
// input leads with two all-null rows: a null join id matches nothing, so
// outer and nest variants keep those rows and inner and semi variants drop
// them. Nulls sort first, so the inputs stay in document order.
TEST_F(ExecBatchTest, JoinsAcrossVariants) {
  auto with_nulls = [](const NestedRelation& rel) {
    NestedRelation out(rel.schema_ptr());
    for (int i = 0; i < 2; ++i) out.Add(NullTuple(rel.schema()));
    for (const Tuple& t : rel.tuples()) out.Add(t);
    return out;
  };
  NestedRelation people = with_nulls(people_);
  NestedRelation names = with_nulls(names_);
  // Null atoms order first, so the relations stay in declared order.
  ctx_.relations = {{"people", {&people, OrderDescriptor::On("p_ID")}},
                    {"names", {&names, OrderDescriptor::On("n_ID")}}};
  NavEmit emit;
  emit.id = true;
  emit.val = true;
  emit.prefix = "em";
  for (JoinVariant v : {JoinVariant::kInner, JoinVariant::kSemi,
                        JoinVariant::kLeftOuter, JoinVariant::kNestJoin,
                        JoinVariant::kNestOuter}) {
    SCOPED_TRACE(JoinVariantName(v));
    CheckPlanDifferential(
        LogicalPlan::ValueJoin(LogicalPlan::Scan("people"),
                               LogicalPlan::Scan("names"), "p_Val",
                               Comparator::kEq, "n_Val", v, "grp"),
        ctx_);
    CheckPlanDifferential(
        LogicalPlan::ValueJoin(LogicalPlan::Scan("people"),
                               LogicalPlan::Scan("names"), "p_Val",
                               Comparator::kLt, "n_Val", v, "grp"),
        ctx_);
    CheckPlanDifferential(
        LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                    LogicalPlan::Scan("names"), "p_ID",
                                    Axis::kDescendant, "n_ID", v, "grp"),
        ctx_);
    CheckPlanDifferential(
        LogicalPlan::Navigate(LogicalPlan::Scan("people"), "p_ID",
                              {NavStep{Axis::kChild, "emailaddress"}}, emit,
                              v),
        ctx_);
  }
}

TEST_F(ExecBatchTest, ProductUnionNavigate) {
  CheckPlanDifferential(LogicalPlan::Product(LogicalPlan::Scan("people"),
                                             LogicalPlan::Scan("names")),
                        ctx_);
  CheckPlanDifferential(LogicalPlan::Union(LogicalPlan::Scan("names"),
                                           LogicalPlan::Scan("names")),
                        ctx_);
  NavEmit emit;
  emit.id = true;
  emit.val = true;
  emit.prefix = "em";
  CheckPlanDifferential(
      LogicalPlan::Navigate(LogicalPlan::Scan("people"), "p_ID",
                            {NavStep{Axis::kChild, "emailaddress"}}, emit,
                            JoinVariant::kLeftOuter),
      ctx_);
}

// The integration-test query corpus: every rewritten pattern plan must agree
// between the batched executor and the evaluator at every batch size.
class ExecBatchCorpusTest : public ::testing::Test {
 protected:
  void Load(const char* xml) {
    auto d = Document::Parse(xml);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    doc_ = std::move(d).value();
    summary_ = PathSummary::Build(&doc_);
  }
  void LoadXMark() {
    doc_ = GenerateXMark(XMarkScale(0.1));
    summary_ = PathSummary::Build(&doc_);
  }
  void InstallModel(std::vector<NamedXam> model) {
    catalog_ = Catalog();
    for (const NamedXam& v : model) {
      auto st = catalog_.AddXam(v.name, v.xam, doc_);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    rewriter_ = std::make_unique<Rewriter>(&summary_, std::move(model));
  }
  void CheckQueryPlans(const std::string& query) {
    auto r = QueryRewriter::Rewrite(*rewriter_, query);
    ASSERT_TRUE(r.ok()) << query << " -> " << r.status().ToString();
    EvalContext ctx = catalog_.MakeEvalContext(&doc_);
    for (const Rewriting& rw : r->pattern_rewritings) {
      CheckPlanDifferential(rw.plan, ctx);
    }
  }

  Document doc_;
  PathSummary summary_;
  Catalog catalog_;
  std::unique_ptr<Rewriter> rewriter_;
};

TEST_F(ExecBatchCorpusTest, BibQueriesOverTagStore) {
  Load(kBib);
  InstallModel(TagPartitionedModel(summary_));
  CheckQueryPlans(
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>");
  CheckQueryPlans(
      "for $x in doc(\"bib\")//book where $x/year = \"1999\" "
      "return <a>{$x/author/text()}</a>");
}

TEST_F(ExecBatchCorpusTest, BibQueriesOverPathStore) {
  Load(kBib);
  InstallModel(PathPartitionedModel(summary_));
  CheckQueryPlans(
      "for $x in doc(\"bib\")//book return <t>{$x/title/text()}</t>");
  CheckQueryPlans(
      "for $x in doc(\"bib\")//phdthesis return <t>{$x/title/text()}</t>");
}

TEST_F(ExecBatchCorpusTest, XMarkQueriesOverTagStore) {
  LoadXMark();
  InstallModel(TagPartitionedModel(summary_));
  CheckQueryPlans(
      "for $x in doc(\"x\")//people/person return <p>{$x/name/text()}</p>");
  CheckQueryPlans(
      "for $x in doc(\"x\")//closed_auction where $x/price > 100 "
      "return <p>{$x/price/text()}</p>");
}

// EXPLAIN ANALYZE: after an execution the context-bound tree renders its
// per-operator batch/tuple/time counters, and the counters add up.
TEST_F(ExecBatchTest, DescribeAnalyzeReportsCounters) {
  PlanPtr join = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("people"), LogicalPlan::Scan("names"), "p_ID",
      Axis::kChild, "n_ID", JoinVariant::kInner);
  ExecContext exec(/*batch_size=*/64);
  auto phys = CompilePhysicalPlan(join, ctx_, &exec);
  ASSERT_TRUE(phys.ok());
  auto rel = ExecutePhysical(phys->get());
  ASSERT_TRUE(rel.ok());

  std::string analyze = (*phys)->DescribeAnalyze();
  EXPECT_NE(analyze.find("StackTreeDesc_phi"), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("batches="), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("tuples="), std::string::npos) << analyze;
  EXPECT_NE(analyze.find("next="), std::string::npos) << analyze;

  // The root's counters describe exactly the produced relation.
  const OperatorMetrics& root = (*phys)->metrics();
  EXPECT_EQ(root.tuples_produced, rel->size());
  EXPECT_GE(root.batches_produced, (rel->size() + 63) / 64);
  // Every operator registered with the context; scans produced at least the
  // base relations.
  EXPECT_GE(exec.metric_count(), 3u);
  EXPECT_GE(exec.total_tuples(), rel->size());
}

// Batches respect the configured fill target.
TEST_F(ExecBatchTest, BatchSizeIsHonored) {
  ExecContext exec(/*batch_size=*/7);
  auto phys = CompilePhysicalPlan(LogicalPlan::Scan("people"), ctx_, &exec);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE((*phys)->Open().ok());
  int64_t total = 0;
  for (;;) {
    auto b = (*phys)->NextBatch();
    ASSERT_TRUE(b.ok());
    if (!b->has_value()) break;
    EXPECT_LE((*b)->size(), 7u);
    EXPECT_FALSE((*b)->empty());
    total += static_cast<int64_t>((*b)->size());
  }
  (*phys)->Close();
  EXPECT_EQ(total, people_.size());
}

// The NextTuple() adapter replays the stream exactly, including re-opens.
TEST_F(ExecBatchTest, NextTupleAdapterMatchesBatches) {
  auto phys = CompilePhysicalPlan(LogicalPlan::Scan("names"), ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE((*phys)->Open().ok());
  TupleList streamed;
  for (;;) {
    auto t = (*phys)->NextTuple();
    ASSERT_TRUE(t.ok());
    if (!t->has_value()) break;
    streamed.push_back(std::move(**t));
  }
  (*phys)->Close();
  ASSERT_EQ(static_cast<int64_t>(streamed.size()), names_.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_TRUE(TuplesEqual(streamed[i], names_.tuple(i)));
  }
}

// --- Randomized XAM patterns --------------------------------------------------

// Randomized XAM patterns are compiled into logical plans and executed by
// the materializing evaluator and by the physical engine at batch sizes 1,
// 7 and 1024. The evaluator is compared canonically (sorted byte-for-byte);
// batch sizes 1 and 7 must reproduce the batch-size-1024 output exactly.
class ExecBatchPatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = GenerateXMark(XMarkScale(0.02));
    summary_ = PathSummary::Build(&doc_);
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
    ctx->relations[rname] = {base_rels_.back().get(),
                             OrderDescriptor::On(n.name + "_ID")};
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

  // Evaluator vs engine at the default batch size 1024 (canonical order),
  // then batch sizes 1 and 7 against it (exact order).
  void CheckDifferential(const PlanPtr& plan, const EvalContext& ctx,
                         const std::string& what) {
    // Static analysis leg: every generated plan must pass the logical
    // verifier before anything executes. (The physical verifier runs inside
    // every CompilePhysicalPlan below — verify_plans defaults on — so each
    // compiled tree is order-checked too.)
    auto verified = VerifyLogicalPlan(*plan, ctx);
    ASSERT_TRUE(verified.ok()) << what << ": " << verified.status().ToString();

    auto reference = Evaluate(*plan, ctx);
    ASSERT_TRUE(reference.ok()) << what << ": " << reference.status().ToString();

    ExecContext default_exec;
    auto engine = ExecutePhysicalPlan(plan, ctx, &default_exec);
    ASSERT_TRUE(engine.ok()) << what << ": " << engine.status().ToString();

    NestedRelation canonical_ref = *reference;
    NestedRelation canonical_engine = *engine;
    canonical_ref.Sort();
    canonical_engine.Sort();
    ASSERT_TRUE(canonical_ref.Equals(canonical_engine))
        << what << ": evaluator rows=" << reference->size()
        << " physical rows=" << engine->size();

    for (size_t batch : {size_t{1}, size_t{7}}) {
      ExecContext exec(batch);
      auto got = ExecutePhysicalPlan(plan, ctx, &exec);
      ASSERT_TRUE(got.ok()) << what << " batch=" << batch << ": "
                            << got.status().ToString();
      ASSERT_TRUE(engine->Equals(*got))
          << what << " batch=" << batch << ": output diverges (rows "
          << got->size() << " vs " << engine->size() << ")";
    }
  }

  Document doc_;
  PathSummary summary_;
  std::vector<std::unique_ptr<NestedRelation>> base_rels_;
};

TEST_F(ExecBatchPatternTest, RandomizedPatternsDifferential) {
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

// Physical data independence at the join: a structural join whose
// descendant side is a virtual columnar extent returns the same tuples as
// the same join over the materialized collection.
TEST_F(ExecBatchPatternTest, ColumnarDescendantSideMatchesMaterialized) {
  NestedRelation people = TagCollection(doc_, "person", {"p", true, true, false});
  NestedRelation names = TagCollection(doc_, "name", {"n", true, true, false});
  ColumnarDocument col = ColumnarDocument::FromDocument(doc_);
  auto xam = ParseXam("xam\nnode n label=name id=s tag val\nedge top // j n\n");
  ASSERT_TRUE(xam.ok()) << xam.status().ToString();
  auto cnames = MaterializedView::Materialize("cnames", std::move(*xam), col);
  ASSERT_TRUE(cnames.ok()) << cnames.status().ToString();
  ASSERT_NE(cnames->virtual_store(), nullptr);

  EvalContext materialized_ctx;
  materialized_ctx.relations = {
      {"people", {&people, OrderDescriptor::On("p_ID")}},
      {"names", {&names, OrderDescriptor::On("n_ID")}}};
  materialized_ctx.document = &doc_;
  EvalContext columnar_ctx;
  columnar_ctx.relations = {
      {"people", {&people, OrderDescriptor::On("p_ID")}}};
  columnar_ctx.views = {{"cnames", &*cnames}};
  columnar_ctx.document = &col;
  auto join = [](const std::string& desc) {
    return LogicalPlan::StructuralJoin(
        LogicalPlan::Scan("people"), LogicalPlan::Scan(desc), "p_ID",
        Axis::kDescendant, "n_ID", JoinVariant::kInner);
  };
  ExecContext exec;
  auto columnar = ExecutePhysicalPlan(join("cnames"), columnar_ctx, &exec);
  ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
  ASSERT_GT(columnar->size(), 0);
  auto materialized =
      ExecutePhysicalPlan(join("names"), materialized_ctx, &exec);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_TRUE(columnar->Equals(*materialized));
}

}  // namespace
}  // namespace uload
