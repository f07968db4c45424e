#include "rewrite/plan_pattern.h"

#include <algorithm>

namespace uload {
namespace {

// Copies node payload (specs, label) from src node to dst node.
void CopyNodePayload(const XamNode& from, XamNode* to) {
  to->is_attribute = from.is_attribute;
  to->stores_id = from.stores_id;
  to->id_kind = from.id_kind;
  to->id_required = from.id_required;
  to->stores_tag = from.stores_tag;
  to->tag_required = from.tag_required;
  to->stores_val = from.stores_val;
  to->val_required = from.val_required;
  to->val_formula = from.val_formula;
  to->stores_cont = from.stores_cont;
}

// True if every p-node above `n2` is a bare chain: single child, nothing
// stored, no value constraint — so its only information is the path, which
// annotation checking can replace.
bool UpperChainIsBare(const Xam& p, XamNodeId n2) {
  for (XamNodeId cur = p.node(n2).parent; cur != kXamRoot;
       cur = p.node(cur).parent) {
    const XamNode& n = p.node(cur);
    if (n.returning() || n.has_required()) return false;
    if (!n.val_formula.IsTrue()) return false;
    if (n.edges.size() != 1) return false;
  }
  // ⊤ itself must have a single child towards n2's branch.
  return p.node(kXamRoot).edges.size() == 1;
}

// Annotates `composed` and accepts it when every node that maps to a node
// of a source pattern keeps a non-empty annotation within the source's
// annotation for that node (no lost constraints). `src_of` maps composed
// node -> (which source, source node), with -1 for chain-only nodes.
std::optional<ComposedPattern> Validated(
    Xam composed, const std::vector<std::pair<int, XamNodeId>>& src_of,
    const std::vector<const AnnotationSets*>& source_ann,
    const PathSummary& summary) {
  AnnotationSets composed_ann = PathAnnotations(composed, summary);
  for (XamNodeId id = 1; id < composed.size(); ++id) {
    auto [src, src_node] = src_of[id];
    if (src < 0) continue;
    if (composed_ann[id].empty()) return std::nullopt;  // unsatisfiable
    std::span<const SummaryNodeId> allowed = (*source_ann[src])[src_node];
    for (SummaryNodeId s : composed_ann[id]) {
      if (std::find(allowed.begin(), allowed.end(), s) == allowed.end()) {
        return std::nullopt;
      }
    }
  }
  return ComposedPattern{std::move(composed), std::move(composed_ann)};
}

}  // namespace

Xam PrefixXamNames(const Xam& x, const std::string& prefix) {
  Xam out = x;
  for (XamNodeId id = 1; id < out.size(); ++id) {
    out.node(id).name = prefix + out.node(id).name;
  }
  return out;
}

XamNodeId GraftSubtree(Xam* dst, XamNodeId dst_at, Axis axis,
                       JoinVariant variant, const Xam& src,
                       XamNodeId src_node) {
  struct Work {
    XamNodeId src;
    XamNodeId dst_parent;
    Axis axis;
    JoinVariant variant;
  };
  std::vector<Work> stack{{src_node, dst_at, axis, variant}};
  XamNodeId new_root = -1;
  while (!stack.empty()) {
    Work w = stack.back();
    stack.pop_back();
    const XamNode& sn = src.node(w.src);
    XamNodeId nid =
        dst->AddNode(w.dst_parent, w.axis, sn.tag_value, w.variant, sn.name);
    CopyNodePayload(sn, &dst->node(nid));
    if (w.src == src_node) new_root = nid;
    for (auto it = sn.edges.rbegin(); it != sn.edges.rend(); ++it) {
      stack.push_back({it->child, nid, it->axis, it->variant});
    }
  }
  return new_root;
}

std::optional<ComposedPattern> ComposeStructural(
    const Xam& p1, const AnnotationSets& ann1, XamNodeId n1, const Xam& p2,
    const AnnotationSets& ann2, XamNodeId n2, const PathSummary& summary) {
  if (!UpperChainIsBare(p2, n2)) return std::nullopt;
  Xam composed = p1;
  GraftSubtree(&composed, n1, Axis::kDescendant, JoinVariant::kInner, p2, n2);
  // Map composed nodes to sources: p1 nodes keep their ids; grafted nodes
  // were appended in the same relative (pre-order) sequence as p2's subtree.
  std::vector<std::pair<int, XamNodeId>> src_of(composed.size(), {-1, -1});
  for (XamNodeId id = 1; id < p1.size(); ++id) src_of[id] = {0, id};
  // Recover grafted mapping by matching names (unique across patterns).
  for (XamNodeId id = p1.size(); id < composed.size(); ++id) {
    XamNodeId orig = p2.NodeByName(composed.node(id).name);
    if (orig < 0) return std::nullopt;
    src_of[id] = {1, orig};
  }
  return Validated(std::move(composed), src_of, {&ann1, &ann2}, summary);
}

std::optional<ComposedPattern> ComposeMerge(
    const Xam& p1, const AnnotationSets& ann1, XamNodeId n1, const Xam& p2,
    const AnnotationSets& ann2, XamNodeId n2, const PathSummary& summary) {
  if (!UpperChainIsBare(p2, n2)) return std::nullopt;
  const XamNode& a = p1.node(n1);
  const XamNode& b = p2.node(n2);
  if (a.is_attribute != b.is_attribute) return std::nullopt;
  if (!a.tag_value.empty() && !b.tag_value.empty() &&
      a.tag_value != b.tag_value) {
    return std::nullopt;
  }
  Xam composed = p1;
  XamNode& merged = composed.node(n1);
  if (merged.tag_value.empty()) merged.tag_value = b.tag_value;
  merged.stores_id = merged.stores_id || b.stores_id;
  merged.stores_tag = merged.stores_tag || b.stores_tag;
  merged.stores_val = merged.stores_val || b.stores_val;
  merged.stores_cont = merged.stores_cont || b.stores_cont;
  merged.val_formula = merged.val_formula.And(b.val_formula);
  for (const XamEdge& e : b.edges) {
    GraftSubtree(&composed, n1, e.axis, e.variant, p2, e.child);
  }
  std::vector<std::pair<int, XamNodeId>> src_of(composed.size(), {-1, -1});
  for (XamNodeId id = 1; id < p1.size(); ++id) src_of[id] = {0, id};
  src_of[n1] = {1, n2};  // also check against p2's constraints for the merge
  for (XamNodeId id = p1.size(); id < composed.size(); ++id) {
    XamNodeId orig = p2.NodeByName(composed.node(id).name);
    if (orig < 0) return std::nullopt;
    src_of[id] = {1, orig};
  }
  // n1 is validated against p2's annotation only: merging narrowed it, and
  // the plan narrows identically through the equality join, so narrowing
  // within p1's annotation is fine — but it must stay non-empty.
  return Validated(std::move(composed), src_of, {&ann1, &ann2}, summary);
}

}  // namespace uload
