// XAM language units: parser, printer round trip, schema derivation,
// structural introspection.
#include <gtest/gtest.h>

#include "xam/xam_parser.h"
#include "xam/xam_printer.h"

namespace uload {
namespace {

TEST(XamParser, FullFeatureParse) {
  auto x = ParseXam(
      "xam ordered\n"
      "# a comment line\n"
      "node e1 label=book id=s! tag val cont\n"
      "node e2 label=@year val=\"1999\"\n"
      "node e3 label=title id=p val!\n"
      "node e4 val>3\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n"
      "edge e1 / nj e3\n"
      "edge e1 // no e4\n");
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_TRUE(x->ordered());
  EXPECT_EQ(x->size(), 5);
  XamNodeId e1 = x->NodeByName("e1");
  EXPECT_TRUE(x->node(e1).stores_id);
  EXPECT_TRUE(x->node(e1).id_required);
  EXPECT_EQ(x->node(e1).id_kind, IdKind::kStructural);
  EXPECT_TRUE(x->node(e1).stores_tag);
  EXPECT_TRUE(x->node(e1).stores_cont);
  XamNodeId e2 = x->NodeByName("e2");
  EXPECT_TRUE(x->node(e2).is_attribute);
  AtomicValue c;
  EXPECT_TRUE(x->node(e2).val_formula.IsSingleEquality(&c));
  XamNodeId e3 = x->NodeByName("e3");
  EXPECT_EQ(x->node(e3).id_kind, IdKind::kParental);
  EXPECT_TRUE(x->node(e3).val_required);
  XamNodeId e4 = x->NodeByName("e4");
  EXPECT_TRUE(x->node(e4).is_wildcard());
  EXPECT_TRUE(x->IncomingEdge(e4).optional());
  EXPECT_TRUE(x->IncomingEdge(e4).nested());
  EXPECT_TRUE(x->IncomingEdge(e3).nested());
  EXPECT_FALSE(x->IncomingEdge(e3).optional());
  EXPECT_TRUE(x->IncomingEdge(e2).semi());
}

TEST(XamParser, Errors) {
  EXPECT_FALSE(ParseXam("node e1\nedge top / j e1\n").ok());  // no header
  EXPECT_FALSE(ParseXam("xam\nnode e1\n").ok());              // no edge
  EXPECT_FALSE(ParseXam("xam\nnode e1\nedge top / j e1\n"
                        "edge top // j e1\n").ok());  // two incoming
  EXPECT_FALSE(ParseXam("xam\nnode e1 id=q\nedge top / j e1\n").ok());
  EXPECT_FALSE(ParseXam("xam\nnode e1 frobnicate\nedge top / j e1\n").ok());
  EXPECT_FALSE(
      ParseXam("xam\nnode e1\nedge top / zz e1\n").ok());  // bad variant
  // Child declared before parent.
  EXPECT_FALSE(ParseXam("xam\nnode e2\nnode e1\n"
                        "edge e1 / j e2\nedge top / j e1\n").ok());
}

TEST(XamPrinter, RoundTrip) {
  const char* text =
      "xam ordered\n"
      "node e1 label=book id=s! tag val cont\n"
      "node e2 label=@year val=\"1999\"\n"
      "node e3 label=title id=p val\n"
      "edge top // j e1\n"
      "edge e1 / s e2\n"
      "edge e1 / nj e3\n";
  auto x = ParseXam(text);
  ASSERT_TRUE(x.ok());
  std::string printed = PrintXam(*x);
  auto x2 = ParseXam(printed);
  ASSERT_TRUE(x2.ok()) << printed << "\n" << x2.status().ToString();
  EXPECT_TRUE(x->StructurallyEquals(*x2)) << printed;
}

TEST(Xam, ViewSchemaOrderAndNesting) {
  auto x = ParseXam(
      "xam\n"
      "node e1 label=a id=s tag\n"
      "node e2 label=b val\n"
      "node e3 label=c cont\n"
      "node e4 label=d val\n"
      "edge top // j e1\n"
      "edge e1 / j e2\n"
      "edge e1 / nj e3\n"
      "edge e3 / no e4\n");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->ViewSchema()->ToString(),
            "e1_ID, e1_Tag, e2_Val, e3(e3_Cont, e4(e4_Val))");
}

TEST(Xam, StoredAttrsAndAttrPath) {
  // j, nj, no and s edges: nested collections prefix the paths of the
  // attributes inside them, and the semijoined subtree stores nothing.
  auto x = ParseXam(
      "xam\n"
      "node e1 label=a id=s tag\n"
      "node e2 label=b val\n"
      "node e3 label=c id=s cont\n"
      "node e4 label=d val\n"
      "node e5 label=f id=s val\n"
      "node e6 label=g val\n"
      "edge top // j e1\n"
      "edge e1 / j e2\n"
      "edge e1 / nj e3\n"
      "edge e3 / no e4\n"
      "edge e1 / s e5\n"
      "edge e5 / j e6\n");
  ASSERT_TRUE(x.ok());
  std::string paths;
  for (const Xam::StoredAttr& a : x->StoredAttrs()) {
    paths += x->AttrPath(a.node, a.suffix) + " ";
  }
  EXPECT_EQ(paths,
            "e1_ID e1_Tag e2_Val e3.e3_ID e3.e3_Cont e3.e4.e4_Val ");
  EXPECT_EQ(x->NestedPrefix(x->NodeByName("e2")), "");
  EXPECT_EQ(x->NestedPrefix(x->NodeByName("e3")), "e3.");
  EXPECT_EQ(x->NestedPrefix(x->NodeByName("e4")), "e3.e4.");
  EXPECT_EQ(x->NestedPrefix(x->NodeByName("e6")), "");
  EXPECT_EQ(x->ViewSchema()->ToString(),
            "e1_ID, e1_Tag, e2_Val, e3(e3_ID, e3_Cont, e4(e4_Val))");
}

TEST(Xam, ReturnNodesAndNestingDepth) {
  auto x = ParseXam(
      "xam\n"
      "node e1 label=a id=s\n"
      "node e2 label=b\n"
      "node e3 label=c val\n"
      "edge top // j e1\n"
      "edge e1 / no e2\n"
      "edge e2 / no e3\n");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x->ReturnNodes().size(), 2u);  // e1 and e3 (e2 stores nothing)
  EXPECT_EQ(x->NestingDepth(x->NodeByName("e1")), 0);
  EXPECT_EQ(x->NestingDepth(x->NodeByName("e2")), 1);
  EXPECT_EQ(x->NestingDepth(x->NodeByName("e3")), 2);
  EXPECT_TRUE(x->HasOptionalEdges());
  EXPECT_TRUE(x->HasNestedEdges());
  EXPECT_FALSE(x->IsConjunctive());
}

TEST(Xam, StructuralEquality) {
  auto a = ParseXam(
      "xam\nnode e1 label=a id=s\nnode e2 label=b val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  auto b = ParseXam(
      "xam\nnode x label=a id=s\nnode y label=b val\n"
      "edge top // j x\nedge x / j y\n");
  auto c = ParseXam(
      "xam\nnode e1 label=a id=s\nnode e2 label=b val\n"
      "edge top // j e1\nedge e1 // j e2\n");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_TRUE(a->StructurallyEquals(*b));  // names do not matter
  EXPECT_FALSE(a->StructurallyEquals(*c));  // axes do
}

}  // namespace
}  // namespace uload
