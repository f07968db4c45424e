// Property sweeps tying Chapter 4's decision procedures to Chapter 2's
// evaluation semantics:
//  * soundness: whenever IsContained(p, q) holds, p's extent over a
//    document conforming to the summary is a subset of q's extent;
//  * canonical models: every mod_S(p) tree realizes a satisfiable shape and
//    return paths match the pattern's annotations;
//  * the embedding walk: its images are exactly the path annotations;
//  * translation: random generated queries agree between the interpreter
//    and the algebraic evaluation.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "containment/containment.h"
#include "eval/xam_eval.h"
#include "workload/dblp.h"
#include "workload/pattern_gen.h"
#include "workload/xmark.h"
#include "workload/xmark_queries.h"
#include "xam/xam_printer.h"
#include "xquery/interp.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace uload {
namespace {

// Multiset inclusion of a's tuples in b's (names ignored, positions used).
bool SubsetOf(const NestedRelation& a, const NestedRelation& b) {
  if (a.schema().size() != b.schema().size()) return false;
  std::vector<bool> used(b.size(), false);
  for (const Tuple& t : a.tuples()) {
    bool found = false;
    for (int64_t j = 0; j < b.size(); ++j) {
      if (!used[j] && TuplesEqual(t, b.tuple(j))) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

class ContainmentSoundness : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentSoundness, PositiveContainmentImpliesExtentInclusion) {
  Document doc = GenerateXMark(XMarkScale(0.1));
  PathSummary summary = PathSummary::Build(&doc);
  PatternGenerator gen(&summary, 31337u + GetParam() * 7919u);
  PatternGenOptions opts;
  opts.nodes = 3 + GetParam() % 7;
  opts.return_nodes = 1 + GetParam() % 2;
  // Nested edges disagree on sequences almost always (thesis note), so the
  // sweep uses optional/strict edges only — the generator's default.
  std::vector<Xam> patterns;
  for (int i = 0; i < 6; ++i) patterns.push_back(gen.Generate(opts));
  ContainmentOptions copts;
  copts.model_limit = 4096;
  int positives = 0;
  for (const Xam& p : patterns) {
    for (const Xam& q : patterns) {
      auto contained = IsContained(p, q, summary, copts);
      ASSERT_TRUE(contained.ok()) << contained.status().ToString();
      if (!*contained) continue;
      ++positives;
      auto pd = EvaluateXam(p, doc);
      auto qd = EvaluateXam(q, doc);
      ASSERT_TRUE(pd.ok()) << pd.status().ToString();
      ASSERT_TRUE(qd.ok()) << qd.status().ToString();
      EXPECT_TRUE(SubsetOf(*pd, *qd))
          << "containment claimed but extents disagree\np:\n"
          << PrintXam(p) << "q:\n"
          << PrintXam(q) << "p(d):\n"
          << pd->ToString() << "q(d):\n"
          << qd->ToString();
    }
  }
  // Self-containment guarantees at least |patterns| positives.
  EXPECT_GE(positives, 6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ContainmentSoundness, ::testing::Range(0, 10));

class CanonicalModelProps : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalModelProps, TreesMatchAnnotations) {
  Document doc = GenerateXMark(XMarkScale(0.1));
  PathSummary summary = PathSummary::Build(&doc);
  PatternGenerator gen(&summary, 999u + GetParam());
  PatternGenOptions opts;
  opts.nodes = 3 + GetParam() % 6;
  opts.return_nodes = 1;
  Xam p = gen.Generate(opts);
  auto annots = PathAnnotations(p, summary);
  auto model = CanonicalModel(p, summary, 4096);
  ASSERT_FALSE(model.empty()) << PrintXam(p);
  std::vector<XamNodeId> returns = p.ReturnNodes();
  for (const CanonicalTree& t : model) {
    ASSERT_EQ(t.image.size(), p.size());
    for (XamNodeId r : returns) {
      if (t.image[r] < 0) continue;  // erased optional
      const auto& allowed = annots[r];
      EXPECT_NE(std::find(allowed.begin(), allowed.end(),
                          t.nodes[t.image[r]].path),
                allowed.end())
          << "return path outside the node's annotation";
    }
    // Tree edges respect the summary's parent relation.
    for (size_t n = 1; n < t.nodes.size(); ++n) {
      int parent = t.nodes[n].parent;
      ASSERT_GE(parent, 0);
      EXPECT_EQ(summary.node(t.nodes[n].path).parent, t.nodes[parent].path);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CanonicalModelProps, ::testing::Range(0, 12));

// Self-containment of the XMark query patterns over XMark 0.1: verdict,
// |mod_S(p)| and container embeddings checked, per pattern in order.
TEST(CanonicalModelProps, XMarkQueryModelsArePinned) {
  Document doc = GenerateXMark(XMarkScale(0.1));
  PathSummary summary = PathSummary::Build(&doc);
  struct Golden {
    size_t model_size;
    size_t embeddings;
  };
  const std::vector<Golden> golden = {
      {1, 1}, {1, 0}, {1, 0}, {1, 1}, {1, 1},     // q01-q05
      {6, 0}, {1404, 0}, {1, 0}, {1, 0}, {1, 0},  // q06-q10
      {1, 1}, {1, 1}, {1, 0}, {11, 0}, {2, 0},    // q11-q15
      {1, 0}, {1, 0}, {1, 0}, {6, 0}, {1, 1}};    // q16-q20
  std::vector<NamedXam> queries = XMarkQueryPatterns();
  ASSERT_EQ(queries.size(), golden.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ContainmentStats st;
    auto r = IsContained(queries[i].xam, queries[i].xam, summary, {}, &st);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(*r) << queries[i].name;
    EXPECT_EQ(st.canonical_model_size, golden[i].model_size)
        << queries[i].name;
    EXPECT_EQ(st.embeddings_checked, golden[i].embeddings) << queries[i].name;
    EXPECT_FALSE(st.truncated) << queries[i].name;
  }
}

// The embedding walk against arc consistency: for every node, the non-⊥
// images over all embeddings are exactly its path annotation, and a pattern
// is satisfiable iff some embedding exists. The prune-before-prove filter
// (AnnotationsRefuteContainment) is sound only because of this exactness.
class EmbeddingWalk
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {
 protected:
  static const PathSummary& Summary(const std::string& name) {
    static const PathSummary xmark = [] {
      Document doc = GenerateXMark(XMarkScale(0.1));
      return PathSummary::Build(&doc);
    }();
    static const PathSummary dblp = [] {
      Document doc = GenerateDblp();
      return PathSummary::Build(&doc);
    }();
    return name == "xmark" ? xmark : dblp;
  }
};

TEST_P(EmbeddingWalk, ImagesAreExactlyTheAnnotations) {
  const auto [name, optional_percent] = GetParam();
  const PathSummary& summary = Summary(name);
  PatternGenerator gen(&summary, 7u + optional_percent);
  PatternGenOptions opts;
  opts.optional_percent = optional_percent;
  if (std::string(name) == "dblp") {
    opts.return_labels = {"author", "title", "year"};
  }
  // 50 patterns per instance, so 100 per summary.
  for (int i = 0; i < 50; ++i) {
    opts.nodes = 2 + i % 5;
    opts.return_nodes = 1 + (i / 5) % 2;
    Xam p = gen.Generate(opts);
    std::vector<std::set<SummaryNodeId>> images(p.size());
    bool any = false;
    ForEachEmbedding(p, summary, [&](const SummaryEmbedding& e) {
      any = true;
      for (XamNodeId id = 0; id < p.size(); ++id) {
        if (e[id] != kNoSummaryNode) images[id].insert(e[id]);
      }
      return true;
    });
    AnnotationSets annotations = PathAnnotations(p, summary);
    for (XamNodeId id = 0; id < p.size(); ++id) {
      std::set<SummaryNodeId> annotated(annotations[id].begin(),
                                        annotations[id].end());
      EXPECT_EQ(images[id], annotated) << "node " << id << "\n"
                                       << PrintXam(p);
    }
    EXPECT_EQ(IsSatisfiable(p, summary), any) << PrintXam(p);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmbeddingWalk,
                         ::testing::Combine(::testing::Values("xmark", "dblp"),
                                            ::testing::Values(0, 30)),
                         [](const auto& info) {
                           return std::string(std::get<0>(info.param)) +
                                  "_optional" +
                                  std::to_string(std::get<1>(info.param));
                         });

// Random query generator over the XMark structure: simple FLWRs with
// where predicates and constructed results.
std::string RandomQuery(unsigned* seed) {
  auto next = [&]() {
    *seed = *seed * 1103515245u + 12345u;
    return (*seed >> 16) & 0x7fff;
  };
  const char* vars[] = {"person", "item", "open_auction", "closed_auction"};
  const char* subs[][2] = {{"name", "emailaddress"},
                           {"name", "location"},
                           {"initial", "current"},
                           {"price", "date"}};
  int v = next() % 4;
  std::string q = "for $x in doc(\"x\")//" + std::string(vars[v]);
  int mode = next() % 3;
  if (mode == 1) {
    q += " where $x/" + std::string(subs[v][1]) + " ";
  } else if (mode == 2) {
    q += std::string(" where $x/") + subs[v][0] + " != \"zzz\" ";
  }
  q += " return <r>{$x/" + std::string(subs[v][next() % 2]) +
       "/text()}</r>";
  return q;
}

class TranslationAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TranslationAgreement, InterpreterVsAlgebra) {
  Document doc = GenerateXMark(XMarkScale(0.05));
  unsigned seed = 5u + GetParam() * 97u;
  for (int i = 0; i < 3; ++i) {
    std::string q = RandomQuery(&seed);
    auto ast = ParseQuery(q);
    ASSERT_TRUE(ast.ok()) << q;
    auto direct = EvaluateQueryDirect(**ast, doc);
    ASSERT_TRUE(direct.ok()) << q;
    auto tr = TranslateQuery(**ast);
    ASSERT_TRUE(tr.ok()) << q << " -> " << tr.status().ToString();
    auto alg = EvaluateTranslated(*tr, doc);
    ASSERT_TRUE(alg.ok()) << q << " -> " << alg.status().ToString();
    EXPECT_EQ(*direct, *alg) << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TranslationAgreement, ::testing::Range(0, 8));

}  // namespace
}  // namespace uload
