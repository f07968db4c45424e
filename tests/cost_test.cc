// Cardinality estimation from summaries and plan-cost ranking.
#include <gtest/gtest.h>

#include "eval/xam_eval.h"
#include "opt/cost.h"
#include "rewrite/rewriter.h"
#include "storage/storage_models.h"
#include "xam/xam_parser.h"
#include "xml/document.h"

namespace uload {
namespace {

constexpr const char* kLib =
    "<library>"
    "<book><title>A</title><author>x</author><author>y</author></book>"
    "<book><title>B</title><author>z</author></book>"
    "<book><title>C</title><author>w</author></book>"
    "</library>";

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = Document::Parse(kLib);
    ASSERT_TRUE(d.ok());
    doc_ = std::move(d).value();
    summary_ = PathSummary::Build(&doc_);
  }
  Xam P(const std::string& text) {
    auto x = ParseXam(text);
    EXPECT_TRUE(x.ok()) << x.status().ToString();
    return std::move(x).value();
  }
  Document doc_;
  PathSummary summary_;
};

TEST_F(CostTest, ExactForSinglePathPatterns) {
  Xam books = P("xam\nnode e1 label=book id=s\nedge top // j e1\n");
  EXPECT_DOUBLE_EQ(EstimateCardinality(books, summary_), 3.0);
  Xam authors = P("xam\nnode e1 label=author id=s\nedge top // j e1\n");
  EXPECT_DOUBLE_EQ(EstimateCardinality(authors, summary_), 4.0);
}

TEST_F(CostTest, JoinTreesMultiplyPerParent) {
  // book with author: 4 (book, author) pairs.
  Xam p = P(
      "xam\nnode e1 label=book id=s\nnode e2 label=author id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  auto exact = EvaluateXam(p, doc_);
  ASSERT_TRUE(exact.ok());
  double est = EstimateCardinality(p, summary_);
  EXPECT_NEAR(est, static_cast<double>(exact->size()), 0.5);
}

TEST_F(CostTest, PredicatesReduceEstimates) {
  Xam all = P("xam\nnode e1 label=title id=s val\nedge top // j e1\n");
  Xam some = P("xam\nnode e1 label=title id=s val val=\"A\"\n"
               "edge top // j e1\n");
  EXPECT_LT(EstimateCardinality(some, summary_),
            EstimateCardinality(all, summary_));
}

TEST_F(CostTest, NestingCapsMultiplicity) {
  Xam nested = P(
      "xam\nnode e1 label=book id=s\nnode e2 label=author val\n"
      "edge top // j e1\nedge e1 / nj e2\n");
  // One tuple per book regardless of author count.
  EXPECT_NEAR(EstimateCardinality(nested, summary_), 3.0, 0.5);
}

TEST_F(CostTest, PlanCostsOrderSensibly) {
  auto card = [](const std::string&) { return 100.0; };
  PlanPtr scan = LogicalPlan::Scan("v");
  PlanPtr joined = LogicalPlan::StructuralJoin(
      LogicalPlan::Scan("v"), LogicalPlan::Scan("w"), "a", Axis::kDescendant,
      "b", JoinVariant::kInner);
  PlanPtr nav = LogicalPlan::Navigate(
      LogicalPlan::Scan("v"), "a", {NavStep{Axis::kDescendant, "x"}},
      NavEmit{true, false, false, false, IdKind::kStructural, "n"});
  double c_scan = EstimatePlanCost(*scan, summary_, card);
  double c_join = EstimatePlanCost(*joined, summary_, card);
  double c_nav = EstimatePlanCost(*nav, summary_, card);
  EXPECT_LT(c_scan, c_join);
  EXPECT_LT(c_scan, c_nav);
  // Index lookups are cheaper than full scans.
  double c_idx = EstimatePlanCost(
      *LogicalPlan::IndexScan("v", {}), summary_, card);
  EXPECT_LT(c_idx, c_scan);
}

TEST_F(CostTest, RewriterPrefersCheaperAccessPath) {
  // An exact tailored view vs assembling from tag views: the tailored view
  // must rank first by cost.
  Xam q = P(
      "xam\nnode e1 label=book id=s\nnode e2 label=title id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  std::vector<NamedXam> views = TagPartitionedModel(summary_);
  views.push_back({"tailored", q});
  Rewriter rewriter(&summary_, views);
  auto r = rewriter.Rewrite(q);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  EXPECT_EQ((*r)[0].views_used, std::vector<std::string>{"tailored"});
  EXPECT_GT((*r)[0].estimated_cost, 0.0);
  // Later (more complex) rewritings cost at least as much.
  for (size_t i = 1; i < r->size(); ++i) {
    EXPECT_GE((*r)[i].estimated_cost, (*r)[0].estimated_cost);
  }
}

TEST(ChooseWorkerCountTest, RespectsBudgetRowsAndCap) {
  // Serial when the budget or the input is too small to split.
  EXPECT_EQ(ChooseWorkerCount(1000, 0), 1u);
  EXPECT_EQ(ChooseWorkerCount(1000, 1), 1u);
  EXPECT_EQ(ChooseWorkerCount(0, 8), 1u);
  EXPECT_EQ(ChooseWorkerCount(1, 8), 1u);
  // Otherwise min(budget, rows, 64): never more workers than rows, never
  // more than the hard cap.
  EXPECT_EQ(ChooseWorkerCount(1000, 4), 4u);
  EXPECT_EQ(ChooseWorkerCount(3, 8), 3u);
  EXPECT_EQ(ChooseWorkerCount(1'000'000, 1000), 64u);
}

}  // namespace
}  // namespace uload
