// Differential test for the batch-at-a-time physical engine: for every plan
// in the corpus, the batched executor must produce the same relation as the
// materializing Evaluate(), and its own output must be byte-identical across
// batch sizes 1, 2, and 1024 — the sizes that exercise batch-boundary edges
// (every-tuple-a-boundary, odd split, everything-in-one-batch).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "eval/tag_collections.h"
#include "exec/physical.h"
#include "rewrite/query_rewriter.h"
#include "storage/storage_models.h"
#include "support/evaluator.h"
#include "workload/xmark.h"
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
    ctx_.relations = {{"people", &people_}, {"names", &names_}};
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

TEST_F(ExecBatchTest, JoinsAcrossVariants) {
  for (JoinVariant v : {JoinVariant::kInner, JoinVariant::kSemi,
                        JoinVariant::kLeftOuter, JoinVariant::kNestJoin,
                        JoinVariant::kNestOuter}) {
    CheckPlanDifferential(
        LogicalPlan::ValueJoin(LogicalPlan::Scan("people"),
                               LogicalPlan::Scan("names"), "p_Val",
                               Comparator::kEq, "n_Val", v, "grp"),
        ctx_);
    CheckPlanDifferential(
        LogicalPlan::StructuralJoin(LogicalPlan::Scan("people"),
                                    LogicalPlan::Scan("names"), "p_ID",
                                    Axis::kDescendant, "n_ID", v, "grp"),
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

}  // namespace
}  // namespace uload
