#include "containment/canonical_model.h"

#include <algorithm>
#include <functional>
#include <set>

namespace uload {
namespace {

// Appends a node on summary path `path` below node `parent` (-1 for the
// root); returns its index.
int AddNode(CanonicalTree* t, SummaryNodeId path, int parent) {
  int idx = static_cast<int>(t->nodes.size());
  CanonicalNode& n = t->nodes.emplace_back();
  n.path = path;
  n.parent = parent;
  if (parent >= 0) t->nodes[parent].children.push_back(idx);
  return idx;
}

// Builds the canonical tree for one embedding, skipping pattern subtrees
// whose root is flagged erased.
CanonicalTree BuildTree(const Xam& p, const PathSummary& s,
                        const SummaryEmbedding& e,
                        const std::vector<bool>& erased) {
  CanonicalTree t;
  t.image.assign(p.size(), -1);
  t.image[kXamRoot] = AddNode(&t, s.document_node(), -1);

  // Pre-order so parents are materialized before children.
  for (XamNodeId id : p.PreOrder()) {
    if (id == kXamRoot || erased[id]) continue;
    if (e[id] == kNoSummaryNode) continue;  // unembeddable optional subtree
    XamNodeId pparent = p.node(id).parent;
    if (t.image[pparent] < 0) continue;  // inside an erased subtree
    // Chain of summary nodes strictly between e(parent) and e(id).
    std::vector<SummaryNodeId> chain;
    for (SummaryNodeId cur = s.node(e[id]).parent; cur != e[pparent];
         cur = s.node(cur).parent) {
      chain.push_back(cur);
    }
    int attach = t.image[pparent];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      attach = AddNode(&t, *it, attach);
    }
    t.image[id] = AddNode(&t, e[id], attach);
    t.nodes[t.image[id]].formula = p.node(id).val_formula;
  }
  return t;
}

// Serialization key for whole-tree duplicate elimination: children sorted.
std::string TreeKey(const CanonicalTree& t, int node,
                    const std::vector<int>& return_mark) {
  const CanonicalNode& n = t.nodes[node];
  std::string key = std::to_string(n.path);
  if (!n.formula.IsTrue()) key += "{" + n.formula.ToString() + "}";
  if (return_mark[node] >= 0) {
    key += "#" + std::to_string(return_mark[node]);
  }
  std::vector<std::string> kids;
  for (int c : n.children) kids.push_back(TreeKey(t, c, return_mark));
  std::sort(kids.begin(), kids.end());
  key += "(";
  for (const std::string& k : kids) key += k + ",";
  key += ")";
  return key;
}

std::string WholeTreeKey(const Xam& p, const CanonicalTree& t) {
  // Mark which canonical node realizes which return position.
  std::vector<int> mark(t.nodes.size(), -1);
  std::vector<XamNodeId> rets = p.ReturnNodes();
  std::string erased_suffix;
  for (size_t i = 0; i < rets.size(); ++i) {
    int img = t.image[rets[i]];
    if (img >= 0) {
      mark[img] = static_cast<int>(i);
    } else {
      erased_suffix += "!" + std::to_string(i);
    }
  }
  return TreeKey(t, 0, mark) + erased_suffix;
}

// Checks that an optional-edge erasure set is *maximal-consistent*: a
// subtree may only be erased if its entry edge is optional, and (per the
// optional-embedding semantics, §4.1) erasure is a modeling choice — any
// subset yields a canonical tree, but the resulting tree must still admit
// p itself (p(t_{e,F}) ≠ ∅, §4.3.2). For tree patterns this holds exactly
// when erasures happen at optional edges only, which the enumeration
// guarantees by construction. `emit` returns false to stop the enumeration;
// so does this function.
bool EnumerateErasures(const Xam& p, const std::vector<XamNodeId>& opt_edges,
                       size_t idx, std::vector<bool>* erased,
                       const std::function<bool()>& emit) {
  if (idx == opt_edges.size()) return emit();
  if (!EnumerateErasures(p, opt_edges, idx + 1, erased, emit)) return false;
  // Erase the subtree below this optional edge.
  XamNodeId child = opt_edges[idx];
  std::vector<XamNodeId> stack{child};
  std::vector<XamNodeId> marked;
  while (!stack.empty()) {
    XamNodeId n = stack.back();
    stack.pop_back();
    if (!(*erased)[n]) {
      (*erased)[n] = true;
      marked.push_back(n);
    }
    for (const XamEdge& e : p.node(n).edges) stack.push_back(e.child);
  }
  bool more = EnumerateErasures(p, opt_edges, idx + 1, erased, emit);
  for (XamNodeId n : marked) (*erased)[n] = false;
  return more;
}

}  // namespace

std::string CanonicalTree::ToString(const PathSummary& summary) const {
  std::string out;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [node, indent] = stack.back();
    stack.pop_back();
    out.append(indent * 2, ' ');
    const CanonicalNode& n = nodes[node];
    out += summary.node(n.path).label + " @" + summary.PathString(n.path);
    if (!n.formula.IsTrue()) out += " [" + n.formula.ToString() + "]";
    out += "\n";
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.emplace_back(*it, indent + 1);
    }
  }
  return out;
}

bool StrongGuaranteed(const Xam& p, XamNodeId node, Axis axis,
                      SummaryNodeId at, const PathSummary& summary) {
  const XamNode& pn = p.node(node);
  if (!pn.val_formula.IsTrue()) return false;  // values are never guaranteed
  for (SummaryNodeId cand : SummaryCandidates(p, node, axis, at, summary)) {
    bool strong = axis == Axis::kChild
                      ? summary.node(cand).annotation != EdgeAnnotation::kStar
                      : summary.AllStrongBetween(at, cand);
    if (!strong) continue;
    // Optional children may legally be absent.
    if (std::all_of(pn.edges.begin(), pn.edges.end(), [&](const XamEdge& e) {
          return e.optional() ||
                 StrongGuaranteed(p, e.child, e.axis, cand, summary);
        })) {
      return true;
    }
  }
  return false;
}

void AugmentWithStrongClosure(const PathSummary& summary, CanonicalTree* t) {
  // Work on a growing node vector; newly added virtual nodes are themselves
  // expanded (the summary is a tree, so this terminates).
  for (size_t i = 0; i < t->nodes.size(); ++i) {
    const SummaryNode& at = summary.node(t->nodes[i].path);
    if (at.kind == NodeKind::kText) continue;
    for (SummaryNodeId c : at.children) {
      if (summary.node(c).annotation == EdgeAnnotation::kStar) continue;
      if (summary.node(c).kind == NodeKind::kText) continue;
      // Skip when a real child on this path already exists: for '1' edges it
      // IS the guaranteed instance; for '+' edges no *additional* instance
      // is guaranteed.
      const std::vector<int>& kids = t->nodes[i].children;
      if (std::any_of(kids.begin(), kids.end(),
                      [&](int k) { return t->nodes[k].path == c; })) {
        continue;
      }
      int idx = AddNode(t, c, static_cast<int>(i));
      t->nodes[idx].virtual_node = true;
    }
  }
}

bool ForEachCanonicalTree(const Xam& p, const PathSummary& summary,
                          size_t limit,
                          const std::function<bool(CanonicalTree&)>& fn) {
  // Unsatisfiable node formulas make the whole pattern S-unsatisfiable.
  for (XamNodeId id = 0; id < p.size(); ++id) {
    if (p.node(id).val_formula.IsFalse()) return true;
  }
  // Optional edges: children reachable via o / no edges.
  std::vector<XamNodeId> opt_children;
  for (XamNodeId id = 1; id < p.size(); ++id) {
    if (p.IncomingEdge(id).optional()) opt_children.push_back(id);
  }

  std::set<std::string> seen;
  std::vector<bool> erased(p.size(), false);
  bool keep_going = true;
  ForEachEmbedding(p, summary, [&](const SummaryEmbedding& e) {
    // Only optional children this embedding realizes can be erased: one
    // already at ⊥ (itself or below a ⊥ parent) builds the same tree
    // either way, and enumerating it would double the work per such edge.
    std::vector<XamNodeId> live;
    for (XamNodeId c : opt_children) {
      if (e[c] != kNoSummaryNode) live.push_back(c);
    }
    EnumerateErasures(p, live, 0, &erased, [&]() {
      // Enhanced-summary pruning: erasing an optional branch is impossible
      // when strong edges guarantee a match below the (kept) anchor.
      for (XamNodeId c : live) {
        XamNodeId parent = p.node(c).parent;
        if (erased[c] && !erased[parent] &&
            StrongGuaranteed(p, c, p.IncomingEdge(c).axis, e[parent],
                             summary)) {
          return true;
        }
      }
      CanonicalTree t = BuildTree(p, summary, e, erased);
      std::string key = WholeTreeKey(p, t);
      if (seen.insert(std::move(key)).second) {
        // A distinct tree beyond the cap means the model is incomplete.
        keep_going = seen.size() <= limit && fn(t);
      }
      return keep_going;
    });
    return keep_going;
  });
  return keep_going;
}

std::vector<CanonicalTree> CanonicalModel(const Xam& p,
                                          const PathSummary& summary,
                                          size_t limit) {
  std::vector<CanonicalTree> out;
  ForEachCanonicalTree(p, summary, limit, [&](CanonicalTree& t) {
    out.push_back(std::move(t));
    return true;
  });
  return out;
}

}  // namespace uload
