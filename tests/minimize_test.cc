// Pattern minimization under summary constraints (thesis §4.5, Fig. 4.12).
#include <gtest/gtest.h>

#include "containment/minimize.h"
#include "xam/xam_parser.h"
#include "xam/xam_printer.h"
#include "xml/document.h"

namespace uload {
namespace {

class MinimizeTest : public ::testing::Test {
 protected:
  void Load(const char* xml) {
    auto d = Document::Parse(xml);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
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

TEST_F(MinimizeTest, RedundantIntermediateNodeErased) {
  // Every c is under a/b, so //a//b//c ≡_S //c.
  Load("<a><b><c>1</c></b><b><c>2</c></b></a>");
  Xam p = P(
      "xam\nnode e1 label=a\nnode e2 label=b\nnode e3 label=c id=s\n"
      "edge top // j e1\nedge e1 // j e2\nedge e2 // j e3\n");
  auto minima = MinimizeByContraction(p, summary_);
  ASSERT_TRUE(minima.ok()) << minima.status().ToString();
  ASSERT_EQ(minima->size(), 1u);
  EXPECT_EQ((*minima)[0].size(), 2);  // ⊤ + c
}

TEST_F(MinimizeTest, DiscriminatingNodeKept) {
  // c appears both under b and directly under a: //b//c is NOT //c.
  Load("<a><b><c>1</c></b><c>2</c></a>");
  Xam p = P(
      "xam\nnode e1 label=b\nnode e2 label=c id=s\n"
      "edge top // j e1\nedge e1 // j e2\n");
  auto minima = MinimizeByContraction(p, summary_);
  ASSERT_TRUE(minima.ok());
  ASSERT_EQ(minima->size(), 1u);
  EXPECT_EQ((*minima)[0].size(), 3);  // b cannot be erased
}

TEST_F(MinimizeTest, GlobalMinimizationFindsForeignLabel) {
  // Fig. 4.12's phenomenon: the pattern //a//b//e and //x//e are equivalent,
  // where x does not occur in the original pattern. Here e occurs under
  // /r/a/b/x/e only, and also r has a decoy /r/b (no e below).
  Load("<r><a><b><x><e>1</e></x></b></a><b><z>2</z></b></r>");
  Xam p = P(
      "xam\nnode e1 label=a\nnode e2 label=b\nnode e3 label=e id=s\n"
      "edge top // j e1\nedge e1 // j e2\nedge e2 // j e3\n");
  auto global = MinimizeGlobally(p, summary_);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  ASSERT_FALSE(global->empty());
  // //e alone is already equivalent (e only occurs on one path).
  EXPECT_EQ((*global)[0].size(), 2);
}

TEST_F(MinimizeTest, ReturnNodesNeverErased) {
  Load("<a><b><c>1</c></b></a>");
  Xam p = P(
      "xam\nnode e1 label=b id=s\nnode e2 label=c val\n"
      "edge top // j e1\nedge e1 / j e2\n");
  auto minima = MinimizeByContraction(p, summary_);
  ASSERT_TRUE(minima.ok());
  for (const Xam& m : *minima) {
    EXPECT_EQ(m.ReturnNodes().size(), 2u);
  }
}

TEST_F(MinimizeTest, PredicateNodesKept) {
  // Value-constrained nodes carry semantics and are not contraction victims.
  Load("<a><b><c>1</c></b><b><c>2</c></b></a>");
  Xam p = P(
      "xam\nnode e1 label=b id=s\nnode e2 label=c val=1\n"
      "edge top // j e1\nedge e1 / s e2\n");
  auto minima = MinimizeByContraction(p, summary_);
  ASSERT_TRUE(minima.ok());
  ASSERT_EQ(minima->size(), 1u);
  EXPECT_EQ((*minima)[0].size(), 3);
}

TEST_F(MinimizeTest, MinimizationPreservesEquivalence) {
  Load("<a><b><c><d>1</d></c></b><b><c><d>2</d></c></b></a>");
  Xam p = P(
      "xam\nnode e1 label=a\nnode e2 label=b\nnode e3 label=c\n"
      "node e4 label=d id=s val\n"
      "edge top / j e1\nedge e1 / j e2\nedge e2 / j e3\nedge e3 / j e4\n");
  auto minima = MinimizeGlobally(p, summary_);
  ASSERT_TRUE(minima.ok());
  for (const Xam& m : *minima) {
    auto eq = AreEquivalent(p, m, summary_);
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(*eq) << PrintXam(m);
    EXPECT_LE(m.size(), p.size());
  }
}

}  // namespace
}  // namespace uload
