// Execution-engine units: structural join kernels, order descriptors, and
// the plan evaluator's operators.
#include <gtest/gtest.h>

#include "exec/order_descriptor.h"
#include "exec/structural_join.h"
#include "support/evaluator.h"
#include "workload/xmark.h"

namespace uload {
namespace {

// Ids of a small handmade tree:
//        a(1,7,1)
//      b(2,3,2)   e(5,6,2)
//    c(3,1,3) d(4,2,3)  f(6,4,3) g(7,5,3)
std::vector<StructuralId> Tree() {
  return {{1, 7, 1}, {2, 3, 2}, {3, 1, 3}, {4, 2, 3},
          {5, 6, 2}, {6, 4, 3}, {7, 5, 3}};
}

TEST(StructuralJoinKernel, DescVsAncSamePairs) {
  auto ids = Tree();
  std::vector<StructuralId> anc = {ids[0], ids[1], ids[4]};  // a, b, e
  std::vector<StructuralId> desc = {ids[2], ids[3], ids[5], ids[6]};
  auto d = StackTreeDesc(anc, desc, Axis::kDescendant);
  auto a = StackTreeAnc(anc, desc, Axis::kDescendant);
  auto n = NestedLoopStructuralJoin(anc, desc, Axis::kDescendant);
  EXPECT_EQ(d.size(), n.size());
  EXPECT_EQ(a.size(), n.size());
  // a contains all four leaves; b contains c,d; e contains f,g -> 8 pairs.
  EXPECT_EQ(n.size(), 8u);
}

TEST(StructuralJoinKernel, ParentChildAxis) {
  auto ids = Tree();
  std::vector<StructuralId> anc = {ids[0], ids[1]};         // a, b
  std::vector<StructuralId> desc = {ids[1], ids[2], ids[5]};  // b, c, f
  auto pairs = StackTreeAnc(anc, desc, Axis::kChild);
  // a/b and b/c are parent-child; f's parent (e) is absent.
  EXPECT_EQ(pairs.size(), 2u);
}

TEST(StructuralJoinKernel, OrderingGuarantees) {
  Document doc = GenerateXMark(XMarkScale(0.1));
  std::vector<StructuralId> anc;
  std::vector<StructuralId> desc;
  for (NodeIndex i = 1; i < doc.size(); ++i) {
    const Node& n = doc.node(i);
    if (!n.is_element()) continue;
    if (n.label == "item") anc.push_back(n.sid);
    if (n.label == "keyword") desc.push_back(n.sid);
  }
  auto by_desc = StackTreeDesc(anc, desc, Axis::kDescendant);
  for (size_t i = 1; i < by_desc.size(); ++i) {
    EXPECT_LE(desc[by_desc[i - 1].descendant].pre,
              desc[by_desc[i].descendant].pre);
  }
  auto by_anc = StackTreeAnc(anc, desc, Axis::kDescendant);
  for (size_t i = 1; i < by_anc.size(); ++i) {
    EXPECT_LE(anc[by_anc[i - 1].ancestor].pre, anc[by_anc[i].ancestor].pre);
  }
  // Same pair multiset as the reference implementation.
  auto ref = NestedLoopStructuralJoin(anc, desc, Axis::kDescendant);
  EXPECT_EQ(by_desc.size(), ref.size());
  EXPECT_EQ(by_anc.size(), ref.size());
}

// --- Evaluator operators --------------------------------------------------

NestedRelation MakeRel(std::vector<std::pair<double, std::string>> rows) {
  NestedRelation rel(Schema::Make(
      {Attribute::Atomic("k"), Attribute::Atomic("v")}));
  for (auto& [k, v] : rows) {
    Tuple t;
    t.fields.emplace_back(AtomicValue::Number(k));
    t.fields.emplace_back(AtomicValue::String(v));
    rel.Add(std::move(t));
  }
  return rel;
}

TEST(Evaluator, SelectProjectUnion) {
  NestedRelation r = MakeRel({{1, "a"}, {2, "b"}, {3, "c"}, {2, "b"}});
  std::unordered_map<std::string, const NestedRelation*> rels{{"r", &r}};

  auto sel = Evaluate(*LogicalPlan::Select(
                          LogicalPlan::Scan("r"),
                          Predicate::CompareConst("k", Comparator::kGe,
                                                  AtomicValue::Number(2))),
                      rels);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 3);

  auto proj = Evaluate(*LogicalPlan::Project(LogicalPlan::Scan("r"), {"v"},
                                             /*dedup=*/true),
                       rels);
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->size(), 3);  // a, b, c

  auto uni = Evaluate(
      *LogicalPlan::Union(LogicalPlan::Scan("r"), LogicalPlan::Scan("r")),
      rels);
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->size(), 8);  // duplicate-preserving
}

TEST(Evaluator, ValueJoinVariants) {
  NestedRelation l = MakeRel({{1, "x"}, {2, "y"}, {3, "z"}});
  NestedRelation r = MakeRel({{2, "Y"}, {3, "Z"}, {3, "ZZ"}});
  std::unordered_map<std::string, const NestedRelation*> rels{{"l", &l},
                                                              {"r", &r}};
  auto inner = Evaluate(
      *LogicalPlan::ValueJoin(LogicalPlan::Scan("l"), LogicalPlan::Scan("r"),
                              "k", Comparator::kEq, "k"),
      rels);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->size(), 3);  // (2), (3)x2

  auto semi = Evaluate(
      *LogicalPlan::ValueJoin(LogicalPlan::Scan("l"), LogicalPlan::Scan("r"),
                              "k", Comparator::kEq, "k", JoinVariant::kSemi),
      rels);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(semi->size(), 2);
  EXPECT_EQ(semi->schema().size(), 2);

  auto outer = Evaluate(
      *LogicalPlan::ValueJoin(LogicalPlan::Scan("l"), LogicalPlan::Scan("r"),
                              "k", Comparator::kEq, "k",
                              JoinVariant::kLeftOuter),
      rels);
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(outer->size(), 4);  // 1 with nulls

  auto nest = Evaluate(
      *LogicalPlan::ValueJoin(LogicalPlan::Scan("l"), LogicalPlan::Scan("r"),
                              "k", Comparator::kEq, "k",
                              JoinVariant::kNestOuter, "grp"),
      rels);
  ASSERT_TRUE(nest.ok());
  EXPECT_EQ(nest->size(), 3);
  int grp = nest->schema().IndexOf("grp");
  ASSERT_GE(grp, 0);
  EXPECT_EQ(nest->tuple(0).fields[grp].collection().size(), 0u);
  EXPECT_EQ(nest->tuple(2).fields[grp].collection().size(), 2u);

  auto less = Evaluate(
      *LogicalPlan::ValueJoin(LogicalPlan::Scan("l"), LogicalPlan::Scan("r"),
                              "k", Comparator::kLt, "k"),
      rels);
  ASSERT_TRUE(less.ok());
  EXPECT_EQ(less->size(), 5);  // 1<2,1<3,1<3,2<3,2<3
}

TEST(Evaluator, PrefixNamesRenamesAllLevels) {
  NestedRelation r = MakeRel({{1, "a"}});
  NestedRelation nested(
      Schema::Make({Attribute::Collection("all", r.schema_ptr())}));
  Tuple t;
  t.fields.emplace_back(r.tuples());
  nested.Add(std::move(t));
  std::unordered_map<std::string, const NestedRelation*> rels2{
      {"n", &nested}};
  auto renamed = Evaluate(
      *LogicalPlan::PrefixNames(LogicalPlan::Scan("n"), "p_"), rels2);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed->schema().attr(0).name, "p_all");
  EXPECT_EQ(renamed->schema().attr(0).nested->attr(0).name, "p_k");
}

TEST(Evaluator, DeriveParentOnDewey) {
  NestedRelation rel(Schema::Make({Attribute::Atomic("id")}));
  Tuple t;
  t.fields.emplace_back(AtomicValue::Dewey(DeweyId{1, 2, 3}));
  rel.Add(std::move(t));
  std::unordered_map<std::string, const NestedRelation*> rels{{"r", &rel}};
  auto derived = Evaluate(
      *LogicalPlan::DeriveParent(LogicalPlan::Scan("r"), "id", "anc", 2),
      rels);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->tuple(0).fields[1].atom().dewey(), (DeweyId{1, 2}));

  // Sids cannot derive parents — that is the point of the 'p' property.
  NestedRelation bad(Schema::Make({Attribute::Atomic("id")}));
  Tuple t2;
  t2.fields.emplace_back(AtomicValue::Sid(StructuralId{1, 2, 3}));
  bad.Add(std::move(t2));
  std::unordered_map<std::string, const NestedRelation*> rels2{{"r", &bad}};
  auto err = Evaluate(
      *LogicalPlan::DeriveParent(LogicalPlan::Scan("r"), "id", "anc", 2),
      rels2);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTypeError);
}

TEST(OrderDescriptors, SortAndCheck) {
  NestedRelation r = MakeRel({{3, "c"}, {1, "a"}, {2, "b"}});
  OrderDescriptor by_k = OrderDescriptor::On("k");
  ASSERT_TRUE(SortBy(by_k, &r).ok());
  for (int64_t i = 1; i < r.size(); ++i) {
    EXPECT_LT(AtomicValue::Compare(r.tuple(i - 1).fields[0].atom(),
                                   r.tuple(i).fields[0].atom()),
              0);
  }
  EXPECT_EQ(r.tuple(0).fields[1].atom().as_string(), "a");
}

TEST(OrderDescriptors, NestedKeySortsInsideCollections) {
  // One tuple holding an unsorted collection.
  SchemaPtr inner = Schema::Make({Attribute::Atomic("x")});
  NestedRelation rel(
      Schema::Make({Attribute::Collection("c", inner)}));
  TupleList coll;
  for (double v : {3.0, 1.0, 2.0}) {
    Tuple s;
    s.fields.emplace_back(AtomicValue::Number(v));
    coll.push_back(std::move(s));
  }
  Tuple t;
  t.fields.emplace_back(std::move(coll));
  rel.Add(std::move(t));
  OrderDescriptor nested({OrderKey{"c.x", true}});
  ASSERT_TRUE(SortBy(nested, &rel).ok());
  const TupleList& out = rel.tuple(0).fields[0].collection();
  EXPECT_EQ(out[0].fields[0].atom().as_number(), 1.0);
  EXPECT_EQ(out[2].fields[0].atom().as_number(), 3.0);
}

TEST(Evaluator, ErrorsSurfaceCleanly) {
  NestedRelation r = MakeRel({{1, "a"}});
  std::unordered_map<std::string, const NestedRelation*> rels{{"r", &r}};
  // Unknown relation.
  auto missing = Evaluate(*LogicalPlan::Scan("nope"), rels);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Unknown attribute in a projection.
  auto bad = Evaluate(*LogicalPlan::Project(LogicalPlan::Scan("r"), {"zz"}),
                      rels);
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  // Navigate without a document.
  NavEmit emit;
  emit.id = true;
  emit.prefix = "n";
  auto nav = Evaluate(*LogicalPlan::Navigate(LogicalPlan::Scan("r"), "k",
                                             {NavStep{}}, emit),
                      rels);
  EXPECT_EQ(nav.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace uload
