// View-based rewriting (thesis Ch. 5): the rewriter must find S-equivalent
// plans over the storage XAMs, and executing those plans must produce the
// same data as evaluating the query pattern directly on the document.
#include <gtest/gtest.h>

#include <thread>

#include "eval/xam_eval.h"
#include "exec/physical.h"
#include "rewrite/rewriter.h"
#include "storage/catalog.h"
#include "support/evaluator.h"
#include "workload/xmark.h"
#include "workload/xmark_queries.h"
#include "xam/xam_parser.h"
#include "xam/xam_printer.h"
#include "xml/document.h"

namespace uload {
namespace {

constexpr const char* kShop =
    "<site>"
    "<regions>"
    "<europe>"
    "<item id=\"i1\">"
    "<name>bike</name>"
    "<description><parlist><listitem><keyword>fast</keyword>"
    "</listitem></parlist></description>"
    "<mailbox><mail>m1</mail></mailbox>"
    "</item>"
    "<item id=\"i2\"><name>car</name>"
    "<description><parlist><listitem><keyword>red</keyword>"
    "</listitem></parlist></description>"
    "</item>"
    "</europe>"
    "</regions>"
    "<people><person><name>Ann</name><age>30</age></person>"
    "<person><name>Bob</name><age>40</age></person></people>"
    "</site>";

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = Document::Parse(kShop);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    doc_ = std::move(d).value();
    summary_ = PathSummary::Build(&doc_);
  }

  Xam P(const std::string& text) {
    auto x = ParseXam(text);
    EXPECT_TRUE(x.ok()) << x.status().ToString();
    return std::move(x).value();
  }

  // Registers `views` in a catalog and returns a rewriter over them.
  void Setup(std::vector<NamedXam> views) {
    catalog_ = Catalog();
    for (const NamedXam& v : views) {
      auto st = catalog_.AddXam(v.name, v.xam, doc_);
      ASSERT_TRUE(st.ok()) << v.name << ": " << st.ToString();
    }
    views_ = std::move(views);
  }

  // Rewrites `query`, executes every rewriting on the streaming engine and
  // on the test oracle, and checks both results equal the query pattern's
  // extent (ignoring column names).
  void CheckRewriteExecutes(const Xam& query, int expect_min_results = 1,
                            const RewriteOptions& opts = {}) {
    Rewriter rewriter(&summary_, views_);
    RewriteStats stats;
    auto rewritings = rewriter.Rewrite(query, opts, &stats);
    ASSERT_TRUE(rewritings.ok()) << rewritings.status().ToString();
    ASSERT_GE(static_cast<int>(rewritings->size()), expect_min_results)
        << "no rewriting found; candidates=" << stats.candidates_generated;
    auto direct = EvaluateXam(query, doc_);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EvalContext ctx = catalog_.MakeEvalContext(&doc_);
    for (const Rewriting& r : *rewritings) {
      auto oracle = Evaluate(*r.plan, ctx);
      auto streamed = ExecutePhysicalPlan(r.plan, ctx);
      for (const Result<NestedRelation>* got : {&oracle, &streamed}) {
        const char* engine = got == &oracle ? "oracle" : "streaming";
        ASSERT_TRUE(got->ok()) << engine << ": " << got->status().ToString()
                               << "\n"
                               << r.plan->ToString();
        EXPECT_TRUE(SameData(*direct, **got))
            << engine << " plan:\n"
            << r.plan->ToString() << "pattern:\n"
            << PrintXam(r.pattern) << "direct:\n"
            << direct->ToString() << "got:\n"
            << (*got)->ToString();
      }
    }
  }

  // Bag equality ignoring attribute names (positions must line up).
  static bool SameData(const NestedRelation& a, const NestedRelation& b) {
    if (a.size() != b.size()) return false;
    if (a.schema().size() != b.schema().size()) return false;
    NestedRelation x = a;
    NestedRelation y = b;
    x.Sort();
    y.Sort();
    for (int64_t i = 0; i < x.size(); ++i) {
      if (!TuplesEqual(x.tuple(i), y.tuple(i))) return false;
    }
    return true;
  }

  Document doc_;
  PathSummary summary_;
  Catalog catalog_;
  std::vector<NamedXam> views_;
};

TEST_F(RewriteTest, IdenticalViewIsARewriting) {
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Setup({{"exact", q}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, ProjectionOfWiderView) {
  // The view stores more attributes than the query needs.
  Xam v = P(
      "xam\nnode e1 label=person id=s tag cont\nnode e2 label=name id=s val "
      "cont\nedge top // j e1\nedge e1 / j e2\n");
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Setup({{"wide", v}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, StructuralJoinOfTagViews) {
  // Tag-partitioned storage: person ids and name ids+values in separate
  // views; the rewriting is a structural join (QEP6-style).
  Setup(TagPartitionedModel(summary_));
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, PathPartitionedRewriting) {
  Setup(PathPartitionedModel(summary_));
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, ValueSelectionCompensation) {
  // View stores all ages; query wants age = 30: σ compensates (§5.3).
  Xam v = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=age id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=age id=s val val=\"30\"\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Setup({{"ages", v}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, OptionalViewStrictQuery) {
  // The view keeps items without mail (optional); the query wants only
  // items with mail: σ not-null compensates (§5.2's "summary-based
  // optimization" in reverse).
  Xam v = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=mail id=s val\n"
      "edge top // j e1\nedge e1 // o e2\n");
  Xam q = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=mail id=s val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  Setup({{"maybe_mail", v}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, NavigationFromStoredIds) {
  // No view stores keywords; the item view's ids let the rewriter navigate.
  Xam v = P(
      "xam\nnode e1 label=item id=s\n"
      "edge top // j e1\n");
  Xam q = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=keyword id=s val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  Setup({{"items", v}});
  // Navigation emits per-match tuples: with the strict query edge the
  // variant is inner.
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, SummaryEquivalentLabels) {
  // View stores //item ids+names; query asks for //europe/* with a
  // description — equivalent to item under this summary (§5.2).
  Xam v = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q = P(
      "xam\nnode e0 label=europe\nnode e1 id=s\nnode e3 label=description\n"
      "node e2 label=name id=s val\n"
      "edge top // j e0\nedge e0 / j e1\nedge e1 / s e3\nedge e1 / j e2\n");
  Setup({{"items", v}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, DeweyParentDerivation) {
  // Both views store Dewey ids; the description view joins with the
  // keyword view via ancestor derivation even though containment could
  // also be used; ensure at least one rewriting exists and executes.
  Xam v1 = P(
      "xam\nnode e1 label=description id=p\n"
      "edge top // j e1\n");
  Xam v2 = P(
      "xam\nnode e1 label=keyword id=p val\n"
      "edge top // j e1\n");
  Xam q = P(
      "xam\nnode e1 label=description id=p\nnode e2 label=keyword id=p val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  Setup({{"descs", v1}, {"kws", v2}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, UnionRewriting) {
  // q = //name (all names); views store person names and item names — only
  // their union covers the query (Fig. 5.4-style).
  Xam v1 = P(
      "xam\nnode e1 label=person\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam v2 = P(
      "xam\nnode e1 label=item\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q = P(
      "xam\nnode e1 label=name id=s val\nedge top // j e1\n");
  Setup({{"pnames", v1}, {"inames", v2}});
  CheckRewriteExecutes(q);
}

TEST_F(RewriteTest, NoRewritingWhenDataMissing) {
  // Views only know about people; the query needs keywords and there is no
  // id to navigate from.
  Xam v = P(
      "xam\nnode e1 label=person\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q = P(
      "xam\nnode e1 label=keyword id=s val\nedge top // j e1\n");
  Setup({{"pnames", v}});
  Rewriter rewriter(&summary_, views_);
  auto rewritings = rewriter.Rewrite(q);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_TRUE(rewritings->empty());
}

TEST_F(RewriteTest, CheapestPlanFirst) {
  // Both an exact view and the tag-partitioned pieces can serve the query;
  // the single-view plan must rank first.
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name id=s val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  std::vector<NamedXam> views = TagPartitionedModel(summary_);
  views.push_back({"exact", q});
  Setup(views);
  Rewriter rewriter(&summary_, views_);
  auto rewritings = rewriter.Rewrite(q);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_FALSE(rewritings->empty());
  EXPECT_EQ((*rewritings)[0].views_used, std::vector<std::string>{"exact"});
}

}  // namespace
}  // namespace uload

namespace uload {
namespace {

TEST_F(RewriteTest, IndexViewUsedWhenQueryPinsKey) {
  // booksByYearTitle-style index (QEP11): usable only because the query
  // pins both key values with equalities.
  std::vector<NamedXam> views;
  views.push_back(ValueIndex("person", {"name"}));
  Setup(views);
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name val=\"Ann\"\n"
      "edge top // j e1\nedge e1 / s e2\n");
  Rewriter rewriter(&summary_, views_);
  auto r = rewriter.Rewrite(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->empty());
  // The plan is an IndexScan.
  EXPECT_NE((*r)[0].plan->ToString().find("IndexScan"), std::string::npos)
      << (*r)[0].plan->ToString();
  // And executes correctly against the catalog.
  EvalContext ctx = catalog_.MakeEvalContext(&doc_);
  auto got = Evaluate(*(*r)[0].plan, ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->size(), 1);  // only Ann
}

TEST_F(RewriteTest, IndexViewUnusableWithoutBindings) {
  // The same index cannot serve a query that does not pin the key.
  std::vector<NamedXam> views;
  views.push_back(ValueIndex("person", {"name"}));
  Setup(views);
  Xam q = P(
      "xam\nnode e1 label=person id=s\nedge top // j e1\n");
  Rewriter rewriter(&summary_, views_);
  auto r = rewriter.Rewrite(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

// Every candidate that reaches the equivalence test is settled exactly one
// way: pruned by annotations, answered by an earlier proof, or proved. The
// three counts add up to the 142 candidates this query sends to the test,
// which a search without the two shortcuts would prove one by one, and both
// shortcuts fire here.
TEST(RewriteSearchStatsTest, ShortcutsAccountForEveryEquivalenceTest) {
  Document doc = GenerateXMark(XMarkScale(0.02));
  PathSummary summary = PathSummary::Build(&doc);
  Rewriter rewriter(&summary, TagPartitionedModel(summary));
  const NamedXam q01 = XMarkQueryPatterns()[0];
  ASSERT_EQ(q01.name, "q01");
  RewriteStats stats;
  auto r = rewriter.Rewrite(q01.xam, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 16u);
  EXPECT_EQ(stats.equivalence_checks + stats.equivalence_pruned +
                stats.equivalence_memo_hits,
            142u);
  EXPECT_GT(stats.equivalence_pruned, 0u);
  EXPECT_GT(stats.equivalence_memo_hits, 0u);
  EXPECT_LT(stats.equivalence_checks, 142u);
  EXPECT_EQ(stats.containment_truncations, 0u);
  EXPECT_EQ(stats.disjunct_cap_hits, 0u);
  EXPECT_EQ(stats.implication_budget_exhausted, 0u);
}

// Navigation that covers several query return nodes anchors only on the
// candidate's own nodes, never on nodes an earlier navigation step added
// (they have no annotations). XMark q07 asks for three unrelated nodes that
// none of the first ten path-partitioned views returns.
TEST(RewriteNavigationTest, SeveralUncoveredReturnNodes) {
  Document doc = GenerateXMark(XMarkScale(0.02));
  PathSummary summary = PathSummary::Build(&doc);
  std::vector<NamedXam> views = PathPartitionedModel(summary);
  ASSERT_GE(views.size(), 10u);
  views.resize(10);
  Rewriter rewriter(&summary, views);
  const NamedXam q07 = XMarkQueryPatterns()[6];
  ASSERT_EQ(q07.name, "q07");
  RewriteStats stats;
  auto r = rewriter.Rewrite(q07.xam, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->empty());
  EXPECT_GT(stats.candidates_generated, 0u);
}

// The rewriter is built once per catalog and serves every query after. A
// reused rewriter must find what a fresh one over the same views finds, so
// no search may leave a trace in the per-catalog state.
class RewriterReuse : public RewriteTest {
 protected:
  void SetUp() override {
    RewriteTest::SetUp();
    Setup({ValueIndex("person", {"name"}),
           {"pnames", P("xam\nnode e1 label=person\nnode e2 label=name id=s "
                        "val\nedge top // j e1\nedge e1 / j e2\n")},
           {"inames", P("xam\nnode e1 label=item\nnode e2 label=name id=s "
                        "val\nedge top // j e1\nedge e1 / j e2\n")},
           {"items", P("xam\nnode e1 label=item id=s\nedge top // j e1\n")}});
    // The index view pinned with two different constants in turn, a
    // navigation extension, a union, and the first constant again.
    for (const char* name : {"Ann", "Bob"}) {
      sequence_.push_back(P(
          "xam\nnode e1 label=person id=s\nnode e2 label=name val=\"" +
          std::string(name) +
          "\"\nedge top // j e1\nedge e1 / s e2\n"));
    }
    sequence_.push_back(P(
        "xam\nnode e1 label=item id=s\nnode e2 label=keyword id=s val\n"
        "edge top // j e1\nedge e1 // j e2\n"));
    sequence_.push_back(P("xam\nnode e1 label=name id=s val\nedge top // j e1\n"));
    sequence_.push_back(sequence_[0]);
  }

  // Everything a search reports: each rewriting's plan, then the counters.
  static std::string Outcome(const Rewriter& rewriter, const Xam& query) {
    RewriteStats st;
    auto r = rewriter.Rewrite(query, {}, &st);
    std::string out = r.ok() ? "" : r.status().ToString();
    for (const Rewriting& w : r.ok() ? *r : std::vector<Rewriting>{}) {
      out += w.plan->ToString() + "\n";
    }
    for (size_t n : {st.candidates_generated, st.adaptations_tried,
                     st.equivalence_checks, st.equivalence_pruned,
                     st.equivalence_memo_hits, st.containment_truncations,
                     st.disjunct_cap_hits, st.implication_budget_exhausted}) {
      out += std::to_string(n) + " ";
    }
    return out;
  }

  std::vector<std::string> Run(const Rewriter& rewriter) const {
    std::vector<std::string> out;
    for (const Xam& q : sequence_) out.push_back(Outcome(rewriter, q));
    return out;
  }

  std::vector<Xam> sequence_;
};

TEST_F(RewriterReuse, MatchesFreshRewriter) {
  Rewriter reused(&summary_, views_);
  std::vector<std::string> got = Run(reused);
  ASSERT_EQ(got.size(), sequence_.size());
  for (size_t i = 0; i < sequence_.size(); ++i) {
    EXPECT_EQ(got[i], Outcome(Rewriter(&summary_, views_), sequence_[i]))
        << "query " << i;
  }
  // The sequence reaches the paths it is meant to cover.
  EXPECT_NE(got[0].find("IndexScan(idx_person_name, idx_person_name_n2_Val="
                        "\"Ann\")"),
            std::string::npos)
      << got[0];
  EXPECT_NE(got[1].find("idx_person_name_n2_Val=\"Bob\""), std::string::npos)
      << got[1];
  EXPECT_EQ(got[1].find("Ann"), std::string::npos) << got[1];
  EXPECT_NE(got[2].find("Navigate"), std::string::npos) << got[2];
  EXPECT_NE(got[3].find("Union"), std::string::npos) << got[3];
  EXPECT_EQ(got[4], got[0]);
}

TEST_F(RewriterReuse, ConcurrentSearchesOnOneRewriter) {
  const Rewriter rewriter(&summary_, views_);
  const std::vector<std::string> serial = Run(rewriter);
  std::vector<std::vector<std::string>> got(4);
  std::vector<std::thread> threads;
  for (auto& out : got) {
    threads.emplace_back([&] { out = Run(rewriter); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& out : got) EXPECT_EQ(out, serial);
}

}  // namespace
}  // namespace uload
