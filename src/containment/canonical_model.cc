#include "containment/canonical_model.h"

#include <algorithm>
#include <functional>
#include <set>

namespace uload {
namespace {

// Builds the canonical tree for one embedding, skipping pattern subtrees
// whose root is flagged erased.
CanonicalTree BuildTree(const Xam& p, const PathSummary& s,
                        const SummaryEmbedding& e,
                        const std::vector<bool>& erased) {
  CanonicalTree t;
  t.image.assign(p.size(), -1);
  CanonicalNode root;
  root.label = "#document";
  root.kind = NodeKind::kDocument;
  root.path = s.document_node();
  t.nodes.push_back(std::move(root));
  t.image[kXamRoot] = 0;

  // Pre-order so parents are materialized before children.
  for (XamNodeId id : p.PreOrder()) {
    if (id == kXamRoot) continue;
    if (erased[id]) continue;
    if (e[id] == kNoSummaryNode) continue;  // unembeddable optional subtree
    XamNodeId pparent = p.node(id).parent;
    if (t.image[pparent] < 0) continue;  // inside an erased subtree
    // Chain of summary nodes strictly between e(parent) and e(id).
    std::vector<SummaryNodeId> chain;
    for (SummaryNodeId cur = s.node(e[id]).parent; cur != e[pparent];
         cur = s.node(cur).parent) {
      chain.push_back(cur);
    }
    std::reverse(chain.begin(), chain.end());
    int attach = t.image[pparent];
    for (SummaryNodeId mid : chain) {
      CanonicalNode cn;
      cn.label = s.node(mid).label;
      cn.kind = s.node(mid).kind;
      cn.path = mid;
      cn.parent = attach;
      int idx = static_cast<int>(t.nodes.size());
      t.nodes.push_back(std::move(cn));
      t.nodes[attach].children.push_back(idx);
      attach = idx;
    }
    CanonicalNode cn;
    cn.label = s.node(e[id]).label;
    cn.kind = s.node(e[id]).kind;
    cn.path = e[id];
    cn.formula = p.node(id).val_formula;
    cn.parent = attach;
    int idx = static_cast<int>(t.nodes.size());
    t.nodes.push_back(std::move(cn));
    t.nodes[attach].children.push_back(idx);
    t.image[id] = idx;
  }

  for (XamNodeId r : p.ReturnNodes()) {
    t.return_paths.push_back(t.image[r] >= 0 ? t.nodes[t.image[r]].path
                                             : kNoSummaryNode);
    t.return_images.push_back(t.image[r]);
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
    out += n.label + " @" + summary.PathString(n.path);
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
  // Candidate summary nodes for this pattern node below `at`.
  std::vector<SummaryNodeId> cands =
      axis == Axis::kChild ? summary.ChildrenWithLabel(at, pn.tag_value)
                           : summary.Descendants(at, pn.tag_value);
  for (SummaryNodeId cand : cands) {
    const SummaryNode& sn = summary.node(cand);
    bool kind_ok = pn.is_attribute ? sn.kind == NodeKind::kAttribute
                                   : sn.kind == NodeKind::kElement;
    if (!kind_ok) continue;
    if (axis == Axis::kChild) {
      if (sn.annotation == EdgeAnnotation::kStar) continue;
    } else {
      if (!summary.AllStrongBetween(at, cand)) continue;
    }
    bool children_ok = true;
    for (const XamEdge& e : pn.edges) {
      if (e.optional()) continue;  // may legally be absent
      if (!StrongGuaranteed(p, e.child, e.axis, cand, summary)) {
        children_ok = false;
        break;
      }
    }
    if (children_ok) return true;
  }
  return false;
}

void AugmentWithStrongClosure(const PathSummary& summary, CanonicalTree* t) {
  // Work on a growing node vector; newly added virtual nodes are themselves
  // expanded (the summary is a tree, so this terminates).
  for (size_t i = 0; i < t->nodes.size(); ++i) {
    if (t->nodes[i].kind == NodeKind::kText) continue;
    SummaryNodeId at = t->nodes[i].path;
    for (SummaryNodeId c : summary.node(at).children) {
      if (summary.node(c).annotation == EdgeAnnotation::kStar) continue;
      if (summary.node(c).kind == NodeKind::kText) continue;
      // Skip when a real child on this path already exists: for '1' edges it
      // IS the guaranteed instance; for '+' edges no *additional* instance
      // is guaranteed.
      bool realized = false;
      for (int child : t->nodes[i].children) {
        if (t->nodes[child].path == c) {
          realized = true;
          break;
        }
      }
      if (realized) continue;
      CanonicalNode vn;
      vn.label = summary.node(c).label;
      vn.kind = summary.node(c).kind;
      vn.path = c;
      vn.parent = static_cast<int>(i);
      vn.virtual_node = true;
      int idx = static_cast<int>(t->nodes.size());
      t->nodes.push_back(std::move(vn));
      t->nodes[i].children.push_back(idx);
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
  // Embeddings are enumerated lazily through a streaming variant: we reuse
  // EmbedIntoSummary in chunks is not possible without re-running, so the
  // enumerator below walks embeddings one at a time.
  class Walker {
   public:
    Walker(const Xam& p, const PathSummary& s) : p_(p), s_(s) {
      order_ = p_.PreOrder();
      image_.assign(p_.size(), kNoSummaryNode);
      image_[kXamRoot] = s_.document_node();
    }
    // Calls cb per embedding; cb returns false to abort. Returns false if
    // aborted.
    bool Run(const std::function<bool(const SummaryEmbedding&)>& cb) {
      return Recurse(1, cb);
    }

   private:
    // Summary candidates for `node` below `base`, filtered by kind/label.
    std::vector<SummaryNodeId> Candidates(XamNodeId node,
                                          SummaryNodeId base) const {
      const XamNode& pn = p_.node(node);
      const XamEdge& edge = p_.IncomingEdge(node);
      std::vector<SummaryNodeId> raw =
          edge.axis == Axis::kChild
              ? s_.ChildrenWithLabel(base, pn.tag_value)
              : s_.Descendants(base, pn.tag_value);
      std::vector<SummaryNodeId> out;
      for (SummaryNodeId c : raw) {
        const SummaryNode& sn = s_.node(c);
        bool kind_ok = pn.is_attribute
                           ? sn.kind == NodeKind::kAttribute &&
                                 (pn.tag_value.empty() ||
                                  sn.label == pn.tag_value)
                           : sn.kind == NodeKind::kElement;
        if (kind_ok) out.push_back(c);
      }
      return out;
    }

    // Whether the subtree rooted at `node` admits a full embedding when
    // `node` maps to `at` (optional children may be ⊥, required ones may
    // not).
    bool SubtreeEmbeds(XamNodeId node, SummaryNodeId at) const {
      for (const XamEdge& e : p_.node(node).edges) {
        if (e.optional()) continue;
        bool found = false;
        for (SummaryNodeId c : Candidates(e.child, at)) {
          if (SubtreeEmbeds(e.child, c)) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }

    bool Recurse(size_t idx,
                 const std::function<bool(const SummaryEmbedding&)>& cb) {
      if (idx == order_.size()) return cb(image_);
      XamNodeId node = order_[idx];
      const XamEdge& edge = p_.IncomingEdge(node);
      SummaryNodeId base = image_[p_.node(node).parent];
      if (base == kNoSummaryNode) {
        // Inside an unembeddable optional subtree: the whole subtree is ⊥.
        image_[node] = kNoSummaryNode;
        return Recurse(idx + 1, cb);
      }
      std::vector<SummaryNodeId> candidates;
      for (SummaryNodeId c : Candidates(node, base)) {
        if (SubtreeEmbeds(node, c)) candidates.push_back(c);
      }
      for (SummaryNodeId c : candidates) {
        image_[node] = c;
        if (!Recurse(idx + 1, cb)) return false;
      }
      image_[node] = kNoSummaryNode;
      if (candidates.empty() && edge.optional()) {
        // An optional subtree with no summary embedding maps to ⊥ — the
        // documents conforming to S simply never realize it. Skipping the
        // embedding entirely (the pre-fix behavior) silently shrank the
        // canonical model and made containment accept too much.
        return Recurse(idx + 1, cb);
      }
      return true;
    }

    const Xam& p_;
    const PathSummary& s_;
    std::vector<XamNodeId> order_;
    SummaryEmbedding image_;
  };

  Walker walker(p, summary);
  walker.Run([&](const SummaryEmbedding& e) {
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
