// Containment under summary constraints (thesis Ch. 4).
#include <gtest/gtest.h>

#include "containment/containment.h"
#include "containment/embedding.h"
#include "xam/xam_parser.h"
#include "xml/document.h"

namespace uload {
namespace {

// A small XMark-shaped fragment: region items have descriptions; only item
// children of a region carry a description; listitems only occur below
// description/parlist; keyword only below listitem.
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

class ContainTest : public ::testing::Test {
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

  bool Contained(const Xam& p, const Xam& q, ContainmentStats* st = nullptr) {
    auto r = IsContained(p, q, summary_, {}, st);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && *r;
  }

  Document doc_;
  PathSummary summary_;
};

TEST_F(ContainTest, SelfContainment) {
  Xam p = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  EXPECT_TRUE(Contained(p, p));
}

TEST_F(ContainTest, WildcardGeneralizes) {
  Xam p = P(
      "xam\nnode e1 label=item id=s\nedge top // j e1\n");
  Xam q = P(
      "xam\nnode e1 id=s\nedge top // j e1\n");
  EXPECT_TRUE(Contained(p, q));
  // All elements vs only items: not contained the other way.
  EXPECT_FALSE(Contained(q, p));
}

TEST_F(ContainTest, ChildWithinDescendant) {
  Xam p = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  EXPECT_TRUE(Contained(p, q));
  // In this summary every name *descendant* of person is also a child, so
  // the reverse containment holds too — a summary-only equivalence.
  EXPECT_TRUE(Contained(q, p));
}

TEST_F(ContainTest, SummaryMakesStarEquivalentToItem) {
  // §5.2: children of region elements that have a description child are
  // exactly the items.
  Xam star = P(
      "xam\nnode e1 label=europe\nnode e2 id=s\nnode e3 label=description\n"
      "edge top // j e1\nedge e1 / j e2\nedge e2 / s e3\n");
  Xam item = P(
      "xam\nnode e1 label=item id=s\nedge top // j e1\n");
  EXPECT_TRUE(Contained(star, item));
  EXPECT_TRUE(Contained(item, star));
}

TEST_F(ContainTest, PathEquivalenceThroughRecursionFreeSummary) {
  // //item//keyword ≡_S //item/description/parlist/listitem/keyword.
  Xam direct = P(
      "xam\nnode e1 label=item\nnode e2 label=keyword id=s val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  Xam spelled = P(
      "xam\nnode e1 label=item\nnode e2 label=description\n"
      "node e3 label=parlist\nnode e4 label=listitem\n"
      "node e5 label=keyword id=s val\n"
      "edge top // j e1\nedge e1 / j e2\nedge e2 / j e3\n"
      "edge e3 / j e4\nedge e4 / j e5\n");
  EXPECT_TRUE(Contained(direct, spelled));
  EXPECT_TRUE(Contained(spelled, direct));
}

TEST_F(ContainTest, DifferentLabelsNotContained) {
  Xam p = P("xam\nnode e1 label=name id=s\nedge top // j e1\n");
  Xam q = P("xam\nnode e1 label=age id=s\nedge top // j e1\n");
  EXPECT_FALSE(Contained(p, q));
}

TEST_F(ContainTest, UnsatisfiablePatternContainedInAnything) {
  Xam p = P("xam\nnode e1 label=zzz id=s\nedge top // j e1\n");
  Xam q = P("xam\nnode e1 label=name id=s\nedge top // j e1\n");
  EXPECT_FALSE(IsSatisfiable(p, summary_));
  EXPECT_TRUE(Contained(p, q));
}

TEST_F(ContainTest, AttributeSpecsMustMatch) {
  // Prop. 4.4.3(1): same node, different stored attributes.
  Xam p = P("xam\nnode e1 label=name id=s val\nedge top // j e1\n");
  Xam q = P("xam\nnode e1 label=name id=s\nedge top // j e1\n");
  EXPECT_FALSE(Contained(p, q));
}

TEST_F(ContainTest, DecoratedPerNodeImplication) {
  Xam narrow = P(
      "xam\nnode e1 label=person\nnode e2 label=age id=s val=30\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam wide = P(
      "xam\nnode e1 label=person\nnode e2 label=age id=s val>20\n"
      "edge top // j e1\nedge e1 / j e2\n");
  EXPECT_TRUE(Contained(narrow, wide));
  EXPECT_FALSE(Contained(wide, narrow));
}

TEST_F(ContainTest, DecoratedUnionCoverage) {
  // §4.4.2's key case: v>20 is covered by (v<35) ∪ (v>25) even though
  // neither disjunct alone contains it.
  Xam p = P(
      "xam\nnode e1 label=age id=s val>20\nedge top // j e1\n");
  Xam q1 = P(
      "xam\nnode e1 label=age id=s val<35\nedge top // j e1\n");
  Xam q2 = P(
      "xam\nnode e1 label=age id=s val>25\nedge top // j e1\n");
  EXPECT_FALSE(Contained(p, q1));
  EXPECT_FALSE(Contained(p, q2));
  auto r = IsContainedInUnion(p, {&q1, &q2}, summary_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
  // But v>20 is NOT covered by (v<15) ∪ (v>25).
  Xam q3 = P(
      "xam\nnode e1 label=age id=s val<15\nedge top // j e1\n");
  auto r2 = IsContainedInUnion(p, {&q3, &q2}, summary_);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST_F(ContainTest, UnionOfPathsCoversGeneralPattern) {
  // //name ⊆ (//person/name) ∪ (//item/name): in this summary every name is
  // under person or item.
  Xam p = P("xam\nnode e1 label=name id=s\nedge top // j e1\n");
  Xam q1 = P(
      "xam\nnode e1 label=person\nnode e2 label=name id=s\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q2 = P(
      "xam\nnode e1 label=item\nnode e2 label=name id=s\n"
      "edge top // j e1\nedge e1 / j e2\n");
  auto r = IsContainedInUnion(p, {&q1, &q2}, summary_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  auto r1 = IsContained(p, q1, summary_);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(*r1);
}

TEST_F(ContainTest, OptionalEdgesContainment) {
  // Fig. 4.10 analog: pattern with optional keyword edge is contained in
  // the same pattern with the optional subtree generalized.
  Xam p1 = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=keyword val\n"
      "edge top // j e1\nedge e1 // o e2\n");
  Xam p2 = P(
      "xam\nnode e1 label=item id=s\nnode e2 val\n"
      "edge top // j e1\nedge e1 // o e2\n");
  // (item, keyword-val) tuples are a subset of (item, *-val) tuples.
  EXPECT_TRUE(Contained(p1, p2));
  // The reverse fails: p2 also produces (item, name-val) pairs.
  EXPECT_FALSE(Contained(p2, p1));
  // Optional is weaker than required on the containee side: a strict
  // pattern is contained in its optional version only if the match always
  // exists; keyword always exists under item here.
  Xam strict = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=keyword val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  EXPECT_TRUE(Contained(strict, p1));
  EXPECT_TRUE(Contained(p1, strict));  // summary: every item has a keyword
}

TEST_F(ContainTest, OptionalNotEquivalentWhenMissing) {
  // mail exists under item i1 only; optional(mail) vs strict(mail) differ.
  Xam opt = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=mail val\n"
      "edge top // j e1\nedge e1 // o e2\n");
  Xam strict = P(
      "xam\nnode e1 label=item id=s\nnode e2 label=mail val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  EXPECT_TRUE(Contained(strict, opt));
  EXPECT_FALSE(Contained(opt, strict));
}

TEST_F(ContainTest, NestedPatternsNeedMatchingNesting) {
  Xam nested = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / nj e2\n");
  Xam flat = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  // Different nesting signatures (Prop. 4.4.4 2a).
  EXPECT_FALSE(Contained(nested, flat));
  EXPECT_FALSE(Contained(flat, nested));
  EXPECT_TRUE(Contained(nested, nested));
}

TEST_F(ContainTest, SemijoinSubtreesAreExistential) {
  // //person[age] with age semijoined ⊆ //person — every person has an age.
  Xam p = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=age\n"
      "edge top // j e1\nedge e1 / s e2\n");
  Xam q = P("xam\nnode e1 label=person id=s\nedge top // j e1\n");
  EXPECT_TRUE(Contained(p, q));
  EXPECT_TRUE(Contained(q, p));  // strong edge person->age in this summary
}

TEST_F(ContainTest, CanonicalModelStatsExposed) {
  Xam p = P(
      "xam\nnode e1 id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  ContainmentStats st;
  EXPECT_TRUE(Contained(p, p, &st));
  // * with a name child: person and item -> 2 canonical trees.
  EXPECT_EQ(st.canonical_model_size, 2u);
}

TEST_F(ContainTest, RootChildEdgeRestricts) {
  Xam site_child = P(
      "xam\nnode e1 label=site id=s\nedge top / j e1\n");
  Xam any_site = P(
      "xam\nnode e1 label=site id=s\nedge top // j e1\n");
  EXPECT_TRUE(Contained(site_child, any_site));
  EXPECT_TRUE(Contained(any_site, site_child));  // site only at the root
}

TEST_F(ContainTest, CanonicalTreeToString) {
  Xam p = P(
      "xam\nnode e1 label=person\nnode e2 label=age id=s val>20\n"
      "edge top // j e1\nedge e1 / j e2\n");
  std::vector<CanonicalTree> model = CanonicalModel(p, summary_);
  ASSERT_EQ(model.size(), 1u);
  // Labels come from the summary nodes the tree sits on.
  EXPECT_EQ(model[0].ToString(summary_),
            "#document @/\n"
            "  site @/site\n"
            "    people @/site/people\n"
            "      person @/site/people/person\n"
            "        age @/site/people/person/age [v>20]\n");
}

TEST_F(ContainTest, DisjunctCapIsCounted) {
  // name[1 <= val <= 70] is not covered by the 70 points val = i (1.5 is a
  // counter-model), and each tree collects more value-constrained
  // embeddings than the per-tree disjunct cap allows.
  Xam p = P(
      "xam\nnode e1 label=name id=s val>=1 val<=70\nedge top // j e1\n");
  std::vector<Xam> points;
  for (int i = 1; i <= 70; ++i) {
    points.push_back(P("xam\nnode e1 label=name id=s val=" +
                       std::to_string(i) + "\nedge top // j e1\n"));
  }
  std::vector<const Xam*> union_of;
  for (const Xam& q : points) union_of.push_back(&q);
  ContainmentStats st;
  auto r = IsContainedInUnion(p, union_of, summary_, {}, &st);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(*r);
  // One tree; it collects the first 64 disjuncts, counted once each, and
  // hits the cap once. The last six containers add nothing.
  EXPECT_EQ(st.canonical_model_size, 1u);
  EXPECT_EQ(st.disjunct_cap_hits, 1u);
  EXPECT_EQ(st.embeddings_checked, 64u);
  EXPECT_EQ(st.implication_budget_exhausted, 0u);
  EXPECT_FALSE(st.truncated);
  // Below the cap nothing is counted.
  ContainmentStats few;
  r = IsContainedInUnion(p, {union_of[0], union_of[1]}, summary_, {}, &few);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(few.disjunct_cap_hits, 0u);
}

TEST_F(ContainTest, TruncatedModelIsNotContained) {
  // //name has two canonical trees (person/name and item/name); only the
  // first is under //person/name. A cap of one tree must not answer
  // "contained": the unchecked tree is the counterexample.
  auto d = Document::Parse(
      "<site><people><person><name>A</name></person></people>"
      "<regions><item><name>B</name></item></regions></site>");
  ASSERT_TRUE(d.ok());
  Document doc = std::move(d).value();
  PathSummary summary = PathSummary::Build(&doc);
  auto p = ParseXam("xam\nnode e1 label=name id=s\nedge top // j e1\n");
  auto q = ParseXam(
      "xam\nnode e1 label=person\nnode e2 label=name id=s\n"
      "edge top // j e1\nedge e1 / j e2\n");
  ASSERT_TRUE(p.ok() && q.ok());
  for (size_t limit : {1u, 2u, 1u << 16}) {
    ContainmentOptions opts;
    opts.model_limit = limit;
    ContainmentStats st;
    auto r = IsContained(*p, *q, summary, opts, &st);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(*r) << "model_limit=" << limit;
    // Only the one-tree cap stops before the refuting tree.
    EXPECT_EQ(st.truncated, limit == 1) << "model_limit=" << limit;
  }
  // A model of exactly `model_limit` trees is complete, not truncated.
  ContainmentOptions one;
  one.model_limit = 1;
  ContainmentStats st;
  auto r = IsContained(*q, *p, summary, one, &st);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_FALSE(st.truncated);
}

}  // namespace
}  // namespace uload
