#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "xml/document.h"
#include "xml/ids.h"
#include "xml/parser.h"

namespace uload {
namespace {

constexpr const char* kLibrary = R"(
<library>
  <book year="1999">
    <title>Data on the Web</title>
    <author>Abiteboul</author>
    <author>Suciu</author>
  </book>
  <book>
    <title>The Syntactic Web</title>
    <author>Tom Lerners-Bee</author>
  </book>
  <phdthesis year="2004">
    <title>The Web: next generation</title>
    <author>Jim Smith</author>
  </phdthesis>
</library>
)";

TEST(Parser, ParsesSampleDocument) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Node& root = doc->node(doc->root());
  EXPECT_EQ(root.label, "library");
  EXPECT_EQ(doc->Children(doc->root()).size(), 3u);
}

TEST(Parser, AttributesAndTexts) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok());
  NodeIndex book1 = doc->Children(doc->root())[0];
  std::vector<NodeIndex> kids = doc->Children(book1);
  // year attribute, title, author, author.
  ASSERT_EQ(kids.size(), 4u);
  EXPECT_TRUE(doc->node(kids[0]).is_attribute());
  EXPECT_EQ(doc->node(kids[0]).label, "year");
  EXPECT_EQ(doc->node(kids[0]).value, "1999");
  EXPECT_EQ(doc->Value(kids[1]), "Data on the Web");
}

TEST(Parser, EntityDecoding) {
  auto doc = Document::Parse("<a t=\"x&amp;y\">1 &lt; 2 &#65;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Value(doc->root()), "1 < 2 A");
  NodeIndex attr = doc->Children(doc->root())[0];
  EXPECT_EQ(doc->node(attr).value, "x&y");
}

TEST(Parser, CdataAndComments) {
  auto doc = Document::Parse(
      "<a><!-- note --><![CDATA[<raw> & stuff]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Value(doc->root()), "<raw> & stuff");
}

TEST(Parser, SelfClosingAndNesting) {
  auto doc = Document::Parse("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->element_count(), 4);
}

TEST(Parser, RejectsMismatchedTags) {
  auto doc = Document::Parse("<a><b></a></b>");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(Parser, RejectsTrailingContent) {
  auto doc = Document::Parse("<a/><b/>");
  EXPECT_FALSE(doc.ok());
}

TEST(Parser, SkipsPrologAndDoctype) {
  auto doc = Document::Parse(
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>x</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Value(doc->root()), "x");
}

TEST(StructuralIds, PrePostDepthRelations) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok());
  NodeIndex lib = doc->root();
  NodeIndex book1 = doc->Children(lib)[0];
  NodeIndex title1 = doc->Children(book1)[1];
  const StructuralId& slib = doc->node(lib).sid;
  const StructuralId& sbook = doc->node(book1).sid;
  const StructuralId& stitle = doc->node(title1).sid;
  EXPECT_TRUE(IsParent(slib, sbook));
  EXPECT_TRUE(IsAncestor(slib, stitle));
  EXPECT_FALSE(IsParent(slib, stitle));
  EXPECT_TRUE(IsAncestor(sbook, stitle));
  // Second book follows first book's title.
  NodeIndex book2 = doc->Children(lib)[1];
  EXPECT_TRUE(Precedes(stitle, doc->node(book2).sid));
  EXPECT_FALSE(IsAncestor(sbook, doc->node(book2).sid));
}

TEST(StructuralIds, DepthLabels) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->node(doc->root()).sid.depth, 1u);
  NodeIndex book1 = doc->Children(doc->root())[0];
  EXPECT_EQ(doc->node(book1).sid.depth, 2u);
}

TEST(DeweyIds, PrefixRelations) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok());
  NodeIndex book1 = doc->Children(doc->root())[0];
  NodeIndex title1 = doc->Children(book1)[1];
  DeweyId dlib = doc->Dewey(doc->root());
  DeweyId dbook = doc->Dewey(book1);
  DeweyId dtitle = doc->Dewey(title1);
  EXPECT_EQ(dlib, (DeweyId{1}));
  EXPECT_EQ(dbook, (DeweyId{1, 1}));
  EXPECT_EQ(dtitle, (DeweyId{1, 1, 2}));
  EXPECT_TRUE(DeweyIsAncestor(dlib, dtitle));
  EXPECT_TRUE(DeweyIsParent(dbook, dtitle));
  EXPECT_EQ(DeweyParent(dtitle), dbook);
  EXPECT_EQ(DeweyAncestorAtDepth(dtitle, 1), dlib);
  EXPECT_LT(DeweyCompare(dbook, dtitle), 0);
}

TEST(Document, ContentSerialization) {
  auto doc = Document::Parse("<a x=\"1\"><b>hi</b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Content(doc->root()), "<a x=\"1\"><b>hi</b></a>");
  // Attribute content matches Fig. 2.6: name="value".
  NodeIndex attr = doc->Children(doc->root())[0];
  EXPECT_EQ(doc->Content(attr), "x=\"1\"");
}

TEST(Document, ValueConcatenatesTextDescendants) {
  auto doc = Document::Parse("<a>x<b>y</b>z</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Value(doc->root()), "xyz");
}

TEST(Document, NodeByPre) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok());
  for (NodeIndex i = 1; i < doc->size(); ++i) {
    EXPECT_EQ(doc->NodeByPre(doc->node(i).sid.pre), i);
  }
  EXPECT_EQ(doc->NodeByPre(0), kNoNode);
  EXPECT_EQ(doc->NodeByPre(100000), kNoNode);
}

TEST(Document, PostOrderIsConsistent) {
  auto doc = Document::Parse(kLibrary);
  ASSERT_TRUE(doc.ok());
  // For every parent-child pair: pre(parent) < pre(child), post(child) <
  // post(parent).
  for (NodeIndex i = 1; i < doc->size(); ++i) {
    NodeIndex p = doc->node(i).parent;
    if (p == 0) continue;
    EXPECT_LT(doc->node(p).sid.pre, doc->node(i).sid.pre);
    EXPECT_LT(doc->node(i).sid.post, doc->node(p).sid.post);
  }
}

// Finalize's labels against a post-order DFS over the parent links, and
// SubtreeEnd against the last descendant, on a builder-made document with
// a wide fan-out (AddNode appends children without walking siblings).
TEST(Document, FinalizeLabelsMatchATreeWalk) {
  Document doc;
  NodeIndex root = doc.AddNode(NodeKind::kElement, "r", "", 0);
  for (int i = 0; i < 300; ++i) {
    NodeIndex e = doc.AddNode(NodeKind::kElement, "e", "", root);
    if (i % 3 == 0) doc.AddNode(NodeKind::kAttribute, "a", "v", e);
    if (i % 5 == 0) {
      NodeIndex f = doc.AddNode(NodeKind::kElement, "f", "", e);
      doc.AddNode(NodeKind::kText, "#text", "t", f);
    }
  }
  doc.AddNode(NodeKind::kText, "#text", "tail", root);
  doc.Finalize();
  std::vector<std::vector<NodeIndex>> kids(doc.size());
  for (NodeIndex i = 1; i < doc.size(); ++i) {
    EXPECT_EQ(doc.ordinal(i), kids[doc.parent(i)].size()) << "row " << i;
    kids[doc.parent(i)].push_back(i);
  }
  uint32_t post = 0;
  std::vector<uint32_t> want_post(doc.size(), 0);
  std::vector<NodeIndex> last(doc.size(), 0);
  std::vector<std::pair<NodeIndex, bool>> stack = {{0, false}};
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      want_post[n] = ++post;
      last[n] = kids[n].empty() ? n : last[kids[n].back()];
      continue;
    }
    stack.emplace_back(n, true);
    for (auto it = kids[n].rbegin(); it != kids[n].rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
  EXPECT_EQ(doc.sid(0).post, static_cast<uint32_t>(doc.size()));
  EXPECT_EQ(doc.SubtreeEnd(0), doc.size());
  for (NodeIndex i = 1; i < doc.size(); ++i) {
    EXPECT_EQ(doc.sid(i).pre, static_cast<uint32_t>(i));
    // The DFS numbered the document node too; it finishes last.
    EXPECT_EQ(doc.sid(i).post, want_post[i]) << "row " << i;
    EXPECT_EQ(doc.SubtreeEnd(i), last[i] + 1) << "row " << i;
  }
  EXPECT_EQ(doc.Children(root).size(), 301u);
}

}  // namespace
}  // namespace uload
