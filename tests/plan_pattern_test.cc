// Unit tests for the (plan, pattern) composition machinery of §5.5.
#include <gtest/gtest.h>

#include "rewrite/plan_pattern.h"
#include "xam/xam_parser.h"
#include "xml/document.h"

namespace uload {
namespace {

class PlanPatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = Document::Parse(
        "<site>"
        "<people><person><name>Ann</name></person>"
        "<person><name>Bob</name></person></people>"
        "<items><item><name>bike</name></item></items>"
        "</site>");
    ASSERT_TRUE(d.ok());
    doc_ = std::move(d).value();
    summary_ = PathSummary::Build(&doc_);
  }
  Xam P(const std::string& text) {
    auto x = ParseXam(text);
    EXPECT_TRUE(x.ok()) << x.status().ToString();
    return std::move(x).value();
  }
  // The compositions take the sources' annotations.
  std::optional<ComposedPattern> Structural(const Xam& p1, const char* n1,
                                            const Xam& p2, const char* n2) {
    return ComposeStructural(p1, PathAnnotations(p1, summary_),
                             p1.NodeByName(n1), p2,
                             PathAnnotations(p2, summary_), p2.NodeByName(n2),
                             summary_);
  }
  std::optional<ComposedPattern> Merge(const Xam& p1, const char* n1,
                                       const Xam& p2, const char* n2) {
    return ComposeMerge(p1, PathAnnotations(p1, summary_), p1.NodeByName(n1),
                        p2, PathAnnotations(p2, summary_), p2.NodeByName(n2),
                        summary_);
  }
  Document doc_;
  PathSummary summary_;
};

TEST_F(PlanPatternTest, PrefixKeepsStructure) {
  Xam p = P(
      "xam\nnode e1 label=person id=s\nnode e2 label=name val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  Xam q = PrefixXamNames(p, "v1_");
  EXPECT_TRUE(p.StructurallyEquals(q));
  EXPECT_EQ(q.NodeByName("v1_e1"), p.NodeByName("e1"));
  EXPECT_EQ(q.NodeByName("e1"), -1);
}

TEST_F(PlanPatternTest, GraftCopiesAnnotations) {
  Xam host = P("xam\nnode a label=person id=s\nedge top // j a\n");
  Xam piece = P(
      "xam\nnode b label=name id=s val val=\"Ann\"\n"
      "edge top // j b\n");
  XamNodeId at = host.NodeByName("a");
  XamNodeId added = GraftSubtree(&host, at, Axis::kDescendant,
                                 JoinVariant::kNestOuter, piece,
                                 piece.NodeByName("b"));
  EXPECT_EQ(host.node(added).name, "b");
  EXPECT_TRUE(host.node(added).stores_val);
  AtomicValue c;
  EXPECT_TRUE(host.node(added).val_formula.IsSingleEquality(&c));
  EXPECT_TRUE(host.IncomingEdge(added).nested());
  EXPECT_TRUE(host.IncomingEdge(added).optional());
}

TEST_F(PlanPatternTest, ComposeStructuralValidCase) {
  // person view + name view: names are descendants of persons OR items, so
  // composing under person must preserve annotations (names under items are
  // excluded by the join, which the composed pattern also excludes).
  Xam people = P("xam\nnode a label=person id=s\nedge top // j a\n");
  Xam names = P("xam\nnode b label=name id=s val\nedge top // j b\n");
  auto composed = Structural(people, "a", names, "b");
  ASSERT_TRUE(composed.has_value());
  // The composed pattern has person with a name descendant.
  EXPECT_EQ(composed->pattern.size(), 3);
  // It comes with its own annotations: names below person only.
  EXPECT_EQ(composed->annotations, PathAnnotations(composed->pattern, summary_));
  XamNodeId name = composed->pattern.NodeByName("b");
  ASSERT_EQ(composed->annotations[name].size(), 1u);
  EXPECT_EQ(summary_.PathString(composed->annotations[name][0]),
            "/site/people/person/name");
}

TEST_F(PlanPatternTest, ComposeStructuralRejectsLostConstraints) {
  // The right side constrains names to be under items; grafting it under
  // person would lose that constraint — must be rejected.
  Xam people = P("xam\nnode a label=person id=s\nedge top // j a\n");
  Xam item_names = P(
      "xam\nnode i label=item\nnode b label=name id=s val\n"
      "edge top // j i\nedge i / j b\n");
  EXPECT_FALSE(Structural(people, "a", item_names, "b").has_value());
}

TEST_F(PlanPatternTest, ComposeStructuralRejectsDecoratedUpperChain) {
  // An upper chain carrying a value constraint cannot be replaced by
  // annotation reasoning.
  Xam people = P("xam\nnode a label=person id=s\nedge top // j a\n");
  Xam constrained = P(
      "xam\nnode i label=person val=\"x\"\nnode b label=name id=s val\n"
      "edge top // j i\nedge i / j b\n");
  EXPECT_FALSE(Structural(people, "a", constrained, "b").has_value());
}

TEST_F(PlanPatternTest, ComposeMergeUnifiesNodes) {
  Xam ids = P("xam\nnode a label=person id=s\nedge top // j a\n");
  Xam vals = P(
      "xam\nnode b label=person id=s val\nedge top // j b\n");
  auto composed = Merge(ids, "a", vals, "b");
  ASSERT_TRUE(composed.has_value());
  XamNodeId merged = composed->pattern.NodeByName("a");
  ASSERT_GE(merged, 0);
  EXPECT_TRUE(composed->pattern.node(merged).stores_id);
  EXPECT_TRUE(composed->pattern.node(merged).stores_val);
  EXPECT_EQ(composed->pattern.size(), 2);  // no extra node materialized
  EXPECT_EQ(composed->annotations, PathAnnotations(composed->pattern, summary_));
}

TEST_F(PlanPatternTest, ComposeMergeRejectsLabelClash) {
  Xam a = P("xam\nnode a label=person id=s\nedge top // j a\n");
  Xam b = P("xam\nnode b label=item id=s\nedge top // j b\n");
  EXPECT_FALSE(Merge(a, "a", b, "b").has_value());
}

}  // namespace
}  // namespace uload
