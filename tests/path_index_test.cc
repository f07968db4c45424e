// Property tests for the rewriter's fast paths: the pre-order label index
// behind PathSummary::Descendants, the bitmap arc consistency behind
// PathAnnotations, and the annotation prefilter that rejects equivalence
// candidates before a containment proof. Each fast path is checked against a
// naive reference kept here: the reference implementations are the
// straightforward formulations the fast paths replaced.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "containment/containment.h"
#include "containment/embedding.h"
#include "workload/dblp.h"
#include "workload/pattern_gen.h"
#include "workload/xmark.h"
#include "xam/xam_printer.h"
#include "xml/document.h"

namespace uload {
namespace {

// Depth-first walk of `a`'s subtree, children in order.
std::vector<SummaryNodeId> NaiveDescendants(const PathSummary& s,
                                            SummaryNodeId a,
                                            const std::string& label) {
  std::vector<SummaryNodeId> out;
  std::vector<SummaryNodeId> work(s.node(a).children.rbegin(),
                                  s.node(a).children.rend());
  while (!work.empty()) {
    SummaryNodeId id = work.back();
    work.pop_back();
    const SummaryNode& sn = s.node(id);
    bool matches =
        label.empty() ? sn.kind != NodeKind::kText : sn.label == label;
    if (matches) out.push_back(id);
    for (auto it = sn.children.rbegin(); it != sn.children.rend(); ++it) {
      work.push_back(*it);
    }
  }
  return out;
}

bool NaiveNodeMatches(const XamNode& pn, const SummaryNode& sn) {
  if (pn.is_attribute) {
    if (sn.kind != NodeKind::kAttribute) return false;
    return pn.tag_value.empty() || sn.label == pn.tag_value;
  }
  if (sn.kind != NodeKind::kElement) return false;
  return pn.is_wildcard() || sn.label == pn.tag_value;
}

// Arc consistency with pairwise IsParent / IsAncestor tests.
std::vector<std::vector<SummaryNodeId>> NaivePathAnnotations(
    const Xam& p, const PathSummary& s) {
  std::vector<std::vector<SummaryNodeId>> cand(p.size());
  cand[kXamRoot] = {s.document_node()};
  for (XamNodeId id = 1; id < p.size(); ++id) {
    const XamNode& pn = p.node(id);
    for (SummaryNodeId sid = 1; sid < s.size(); ++sid) {
      bool ok = pn.tag_value.empty()
                    ? (pn.is_attribute ? s.node(sid).kind == NodeKind::kAttribute
                                       : s.node(sid).kind == NodeKind::kElement)
                    : NaiveNodeMatches(pn, s.node(sid));
      if (ok) cand[id].push_back(sid);
    }
  }
  auto related = [&](Axis axis, SummaryNodeId pc, SummaryNodeId c) {
    if (axis == Axis::kChild) return s.IsParent(pc, c);
    return pc == s.document_node() || s.IsAncestor(pc, c);
  };
  bool changed = true;
  std::vector<XamNodeId> order = p.PreOrder();
  while (changed) {
    changed = false;
    for (XamNodeId id : order) {
      if (id == kXamRoot) continue;
      Axis axis = p.IncomingEdge(id).axis;
      XamNodeId parent = p.node(id).parent;
      std::vector<SummaryNodeId> kept;
      for (SummaryNodeId c : cand[id]) {
        bool ok = false;
        for (SummaryNodeId pc : cand[parent]) ok = ok || related(axis, pc, c);
        if (ok) {
          kept.push_back(c);
        } else {
          changed = true;
        }
      }
      cand[id] = std::move(kept);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      for (const XamEdge& e : p.node(*it).edges) {
        if (e.optional()) continue;
        std::vector<SummaryNodeId> kept;
        for (SummaryNodeId pc : cand[*it]) {
          bool ok = false;
          for (SummaryNodeId c : cand[e.child]) ok = ok || related(e.axis, pc, c);
          if (ok) {
            kept.push_back(pc);
          } else {
            changed = true;
          }
        }
        cand[*it] = std::move(kept);
      }
    }
  }
  return cand;
}

constexpr const char* kBib =
    "<bib>"
    "<book year=\"1999\"><title>Data on the Web</title>"
    "<author>Abiteboul</author><author>Suciu</author></book>"
    "<book><title>The Syntactic Web</title><editor><name>Tim</name></editor>"
    "</book>"
    "<phdthesis><title>XAMs</title><author>Arion</author></phdthesis>"
    "</bib>";

struct NamedSummary {
  std::string name;
  PathSummary summary;
};

std::vector<NamedSummary> Summaries() {
  std::vector<NamedSummary> out;
  {
    Document doc = std::move(Document::Parse(kBib)).value();
    out.push_back({"bib", PathSummary::Build(&doc)});
  }
  {
    DblpOptions o;
    o.records = 80;
    Document doc = GenerateDblp(o);
    out.push_back({"dblp", PathSummary::Build(&doc)});
  }
  {
    Document doc = GenerateXMark(XMarkScale(0.05));
    out.push_back({"xmark", PathSummary::Build(&doc)});
  }
  // A summary restored from its text form builds the same indexes.
  auto restored = PathSummary::Deserialize(out.back().summary.Serialize());
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  if (restored.ok()) out.push_back({"xmark-deserialized", *restored});
  return out;
}

TEST(PathIndexTest, DescendantsMatchDepthFirstWalk) {
  for (const NamedSummary& ns : Summaries()) {
    const PathSummary& s = ns.summary;
    std::set<std::string> labels = {"", "no-such-label"};
    for (SummaryNodeId id = 0; id < s.size(); ++id) labels.insert(s.node(id).label);
    size_t nonempty = 0;
    for (SummaryNodeId a = 0; a < s.size(); ++a) {
      for (const std::string& label : labels) {
        std::vector<SummaryNodeId> got = s.Descendants(a, label);
        ASSERT_EQ(got, NaiveDescendants(s, a, label))
            << ns.name << " node " << s.PathString(a) << " label '" << label
            << "'";
        nonempty += got.empty() ? 0 : 1;
      }
    }
    EXPECT_GT(nonempty, 0u) << ns.name;
  }
}

TEST(PathIndexTest, ElementNodesAreTheElementIdsInOrder) {
  for (const NamedSummary& ns : Summaries()) {
    std::vector<SummaryNodeId> expected;
    for (SummaryNodeId id = 1; id < ns.summary.size(); ++id) {
      if (ns.summary.node(id).kind == NodeKind::kElement) expected.push_back(id);
    }
    EXPECT_EQ(ns.summary.ElementNodes(), expected) << ns.name;
  }
}

// Random patterns over the DBLP and XMark summaries, with wildcards,
// value predicates, optional edges and one to three return nodes. The
// return labels rotate through labels found under several paths, so pairs
// share labels as often as they differ.
std::vector<Xam> RandomPatterns(const PathSummary& s, bool dblp, uint32_t seed,
                                int count) {
  const std::vector<std::string> labels =
      dblp ? std::vector<std::string>{"title", "author", "year", "pages"}
           : std::vector<std::string>{"name", "keyword", "item", "text"};
  PatternGenerator gen(&s, seed);
  std::vector<Xam> out;
  for (int i = 0; i < count; ++i) {
    PatternGenOptions o;
    o.nodes = 2 + i % 7;
    o.return_nodes = 1 + i % 3;
    o.wildcard_percent = 25;
    o.return_labels.clear();
    for (size_t k = 0; k < labels.size(); ++k) {
      o.return_labels.push_back(labels[(i / 3 + k) % labels.size()]);
    }
    out.push_back(gen.Generate(o));
  }
  return out;
}

std::vector<std::string> ReturnLabels(const Xam& x) {
  std::vector<std::string> out;
  for (XamNodeId id : x.ReturnNodes()) out.push_back(x.node(id).tag_value);
  return out;
}

TEST(PathIndexTest, PathAnnotationsMatchPairwiseArcConsistency) {
  size_t patterns = 0;
  for (const NamedSummary& ns : Summaries()) {
    if (ns.name == "bib") continue;
    bool dblp = ns.name == "dblp";
    for (const Xam& p : RandomPatterns(ns.summary, dblp, 4242u, 120)) {
      AnnotationSets got = PathAnnotations(p, ns.summary);
      std::vector<std::vector<SummaryNodeId>> want =
          NaivePathAnnotations(p, ns.summary);
      ASSERT_EQ(got.size(), want.size());
      for (size_t id = 0; id < want.size(); ++id) {
        ASSERT_EQ(std::vector<SummaryNodeId>(got[id].begin(), got[id].end()),
                  want[id])
            << ns.name << " node " << id << "\n"
            << PrintXam(p);
      }
      ++patterns;
    }
  }
  EXPECT_EQ(patterns, 360u);
}

// The prefilter is a necessary condition for containment: whenever it
// rejects (p, q), the full proof must also answer "not contained".
TEST(PathIndexTest, PrefilterRejectionImpliesNotContained) {
  ContainmentOptions copts;
  copts.model_limit = 4096;
  size_t rejected = 0;
  size_t same_labels = 0;  // rejected although the return labels agree
  size_t kept = 0;
  for (const NamedSummary& ns : Summaries()) {
    if (ns.name == "bib" || ns.name == "xmark-deserialized") continue;
    bool dblp = ns.name == "dblp";
    std::vector<Xam> patterns = RandomPatterns(ns.summary, dblp, 99u, 36);
    std::vector<AnnotationSets> anns;
    for (const Xam& p : patterns) anns.push_back(PathAnnotations(p, ns.summary));
    for (size_t i = 0; i < patterns.size(); ++i) {
      for (size_t j = 0; j < patterns.size(); ++j) {
        if (!AnnotationsRefuteContainment(patterns[i], anns[i], patterns[j],
                                          anns[j])) {
          ++kept;
          continue;
        }
        ++rejected;
        if (ReturnLabels(patterns[i]) == ReturnLabels(patterns[j])) {
          ++same_labels;
        }
        auto proof = IsContained(patterns[i], patterns[j], ns.summary, copts);
        ASSERT_TRUE(proof.ok()) << proof.status().ToString();
        EXPECT_FALSE(*proof) << ns.name << " p:\n"
                             << PrintXam(patterns[i]) << "q:\n"
                             << PrintXam(patterns[j]);
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(same_labels, 0u);
  EXPECT_GT(kept, 0u);
}

TEST(PathIndexTest, PrefilterIgnoresUnsatisfiableFormulas) {
  // p carries a False formula, so it is contained in anything even though
  // its return annotation escapes q's.
  Document doc = std::move(Document::Parse(kBib)).value();
  PathSummary s = PathSummary::Build(&doc);
  Xam p;
  XamNodeId title = p.AddNode(kXamRoot, Axis::kDescendant, "title");
  p.StoreId(title);
  p.ValPredicate(title, ValueFormula::False());
  Xam q;
  XamNodeId author = q.AddNode(kXamRoot, Axis::kDescendant, "author");
  q.StoreId(author);
  AnnotationSets p_ann = PathAnnotations(p, s);
  AnnotationSets q_ann = PathAnnotations(q, s);
  EXPECT_FALSE(AnnotationsRefuteContainment(p, p_ann, q, q_ann));
  auto proof = IsContained(p, q, s);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(*proof);
  // Without the formula the prefilter rejects, and the proof agrees.
  p.ValPredicate(title, ValueFormula::True());
  EXPECT_TRUE(AnnotationsRefuteContainment(p, p_ann, q, q_ann));
  proof = IsContained(p, q, s);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(*proof);
}

}  // namespace
}  // namespace uload
