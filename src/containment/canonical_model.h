// S-canonical models of patterns (thesis §4.3).
//
// A canonical tree t_e is a small labeled tree derived from an embedding
// e : p → S: one node per pattern node (sitting on its image, and carrying
// the pattern node's value formula), plus the summary chain nodes
// connecting consecutive images (decorated with T). Nodes keep summary ids,
// not labels. Canonical trees of optional patterns are additionally derived
// by erasing subtrees below subsets of optional edges (§4.3.2).
#ifndef ULOAD_CONTAINMENT_CANONICAL_MODEL_H_
#define ULOAD_CONTAINMENT_CANONICAL_MODEL_H_

#include <functional>
#include <string>
#include <vector>

#include "containment/embedding.h"
#include "summary/path_summary.h"
#include "xam/formula.h"
#include "xam/xam.h"

namespace uload {

// Label and kind are the summary node's: `summary.node(path)`.
struct CanonicalNode {
  SummaryNodeId path = kNoSummaryNode;  // summary node this one sits on
  ValueFormula formula = ValueFormula::True();
  int parent = -1;
  std::vector<int> children;
  // Strong-closure node: guaranteed to exist (by +/1 edges) in every
  // conforming document containing the tree, but not part of the embedding
  // image — container patterns may match it, return nodes may not.
  bool virtual_node = false;
};

struct CanonicalTree {
  // nodes[0] is the root (the document node).
  std::vector<CanonicalNode> nodes;
  // Image of each pattern node (indexed by XamNodeId); -1 when the node was
  // erased by an optional-edge subset or maps to ⊥. The images of the
  // pattern's return nodes are the return tuple of Prop. 4.3.1 / 4.4.1.
  std::vector<int> image;

  std::string ToString(const PathSummary& summary) const;
};

// mod_S(p). `limit` bounds the number of trees (a safety valve for
// adversarial patterns; the thesis observes real models stay small).
// Erasure combinations that the enhanced summary's strong edges make
// impossible (an optional branch that is guaranteed to match) are pruned.
std::vector<CanonicalTree> CanonicalModel(const Xam& p,
                                          const PathSummary& summary,
                                          size_t limit = 1u << 16);

// Lazy enumeration of mod_S(p): `fn` receives each (deduplicated) canonical
// tree and returns false to stop early. This is how the containment check
// achieves the thesis's fast-negative behaviour — the model is never fully
// materialized when an early tree already refutes containment. At most
// `limit` trees reach `fn`. Returns true only when the whole model was
// enumerated: false if `fn` stopped the enumeration or if the model has
// more than `limit` trees.
bool ForEachCanonicalTree(const Xam& p, const PathSummary& summary,
                          size_t limit,
                          const std::function<bool(CanonicalTree&)>& fn);

// Appends the strong closure to `t`: virtual children for every strong
// (+/1) summary edge not already realized by a real child. Every conforming
// document containing t also contains the closure.
void AugmentWithStrongClosure(const PathSummary& summary, CanonicalTree* t);

// True if a match for the pattern subtree rooted at `node` is guaranteed to
// exist below every document node on summary path `at` (its entry edge
// taken with axis `axis`): the node's formula is trivial and some summary
// node matching it is reachable through strong edges, recursively for all
// non-optional children.
bool StrongGuaranteed(const Xam& p, XamNodeId node, Axis axis,
                      SummaryNodeId at, const PathSummary& summary);

}  // namespace uload

#endif  // ULOAD_CONTAINMENT_CANONICAL_MODEL_H_
