// Workload generators: structural sanity and summary-profile checks
// (Fig. 4.13 reproduction depends on these shapes).
#include <gtest/gtest.h>

#include "containment/embedding.h"
#include "workload/dataset_gen.h"
#include "workload/dblp.h"
#include "workload/pattern_gen.h"
#include "workload/xmark.h"
#include "workload/xmark_queries.h"
#include "xam/xam_printer.h"

namespace uload {
namespace {

TEST(XMarkGen, StructureAndSummary) {
  XMarkOptions opts;
  Document doc = GenerateXMark(opts);
  ASSERT_TRUE(doc.finalized());
  PathSummary s = PathSummary::Build(&doc);
  EXPECT_EQ(doc.node(doc.root()).label, "site");
  // Rich structure: summary in the hundreds, far smaller than the document.
  EXPECT_GT(s.size(), 150);
  EXPECT_LT(s.size(), 800);
  EXPECT_GT(doc.element_count(), 10 * s.size());
  // The signature XMark paths exist.
  EXPECT_NE(s.NodeByPath({"site", "regions", "europe", "item"}),
            kNoSummaryNode);
  EXPECT_NE(s.NodeByPath({"site", "people", "person", "profile"}),
            kNoSummaryNode);
  // Recursive parlist/listitem unfolds a few levels.
  EXPECT_FALSE(s.NodesWithLabel("listitem").empty());
  EXPECT_GT(s.NodesWithLabel("parlist").size(), 1u);
  // Markup tags occur on many paths (the thesis notes bold/emph inflate the
  // XMark summary).
  EXPECT_GT(s.NodesWithLabel("keyword").size(), 3u);
}

TEST(XMarkGen, DeterministicForSeed) {
  XMarkOptions opts;
  opts.items = 5;
  opts.people = 5;
  Document a = GenerateXMark(opts);
  Document b = GenerateXMark(opts);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.Content(a.root()), b.Content(b.root()));
}

TEST(XMarkGen, SummaryGrowsSublinearly) {
  Document small = GenerateXMark(XMarkScale(0.2));
  Document large = GenerateXMark(XMarkScale(1.0));
  PathSummary ss = PathSummary::Build(&small);
  PathSummary sl = PathSummary::Build(&large);
  EXPECT_GT(large.element_count(), 3 * small.element_count());
  // Summary grows by far less than the document (Fig. 4.13's observation).
  EXPECT_LT(static_cast<double>(sl.size()),
            1.5 * static_cast<double>(ss.size()));
}

TEST(DblpGen, Structure) {
  Document doc = GenerateDblp({300, 7});
  PathSummary s = PathSummary::Build(&doc);
  EXPECT_EQ(doc.node(doc.root()).label, "dblp");
  // DBLP's summary is small (thesis: 41-47 nodes).
  EXPECT_GT(s.size(), 20);
  EXPECT_LT(s.size(), 90);
  EXPECT_FALSE(s.NodesWithLabel("author").empty());
  EXPECT_FALSE(s.NodesWithLabel("title").empty());
}

TEST(DatasetGen, SummarySizeOrdering) {
  Document shakespeare = GenerateShakespeareLike();
  Document nasa = GenerateNasaLike();
  Document swissprot = GenerateSwissProtLike();
  Document xmark = GenerateXMark(XMarkScale(0.3));
  PathSummary s1 = PathSummary::Build(&shakespeare);
  PathSummary s2 = PathSummary::Build(&nasa);
  PathSummary s3 = PathSummary::Build(&swissprot);
  PathSummary s4 = PathSummary::Build(&xmark);
  // The thesis's relative order: Shakespeare < Nasa < SwissProt < XMark.
  EXPECT_LT(s1.size(), s2.size());
  EXPECT_LT(s2.size(), s3.size());
  EXPECT_LT(s3.size(), s4.size());
}

class PatternGenTest : public ::testing::TestWithParam<int> {};

TEST_P(PatternGenTest, GeneratedPatternsAreSatisfiable) {
  Document doc = GenerateXMark(XMarkScale(0.2));
  PathSummary s = PathSummary::Build(&doc);
  PatternGenerator gen(&s, 1000 + GetParam());
  PatternGenOptions opts;
  opts.nodes = 3 + GetParam() % 11;
  opts.return_nodes = 1 + GetParam() % 3;
  Xam p = gen.Generate(opts);
  EXPECT_GE(p.size(), 2);  // at least ⊤ + 1
  EXPECT_TRUE(IsSatisfiable(p, s)) << PrintXam(p);
  EXPECT_EQ(p.ReturnNodes().size(),
            static_cast<size_t>(opts.return_nodes));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PatternGenTest, ::testing::Range(0, 24));

TEST(XMarkQueries, AllTwentyParseAndEmbed) {
  Document doc = GenerateXMark(XMarkScale(0.3));
  PathSummary s = PathSummary::Build(&doc);
  std::vector<NamedXam> queries = XMarkQueryPatterns();
  ASSERT_EQ(queries.size(), 20u);
  for (const NamedXam& q : queries) {
    EXPECT_GT(q.xam.size(), 1) << q.name << " failed to parse";
    EXPECT_TRUE(IsSatisfiable(q.xam, s)) << q.name << "\n" << PrintXam(q.xam);
  }
}

}  // namespace
}  // namespace uload
