#include "containment/minimize.h"

#include <set>

#include "xam/xam_printer.h"

namespace uload {
namespace {

// Rebuilds `p` without node `victim`; the victim's children reattach to its
// parent with // edges (the weaker constraint — equivalence is then tested).
Xam EraseNode(const Xam& p, XamNodeId victim) {
  Xam out;
  out.set_ordered(p.ordered());
  std::vector<XamNodeId> map(p.size(), -1);
  map[kXamRoot] = kXamRoot;
  // Pre-order copy.
  struct Work {
    XamNodeId node;
    XamNodeId new_parent;
    Axis axis;
    JoinVariant variant;
    bool via_erased;
  };
  std::vector<Work> stack;
  const XamNode& top = p.node(kXamRoot);
  for (auto it = top.edges.rbegin(); it != top.edges.rend(); ++it) {
    stack.push_back({it->child, kXamRoot, it->axis, it->variant, false});
  }
  while (!stack.empty()) {
    Work w = stack.back();
    stack.pop_back();
    const XamNode& n = p.node(w.node);
    if (w.node == victim) {
      // Children reconnect to w.new_parent via //; the erased node's edge
      // variant propagates (an optional child of an optional node stays
      // optional).
      for (auto it = n.edges.rbegin(); it != n.edges.rend(); ++it) {
        JoinVariant v = it->variant;
        if (w.variant == JoinVariant::kLeftOuter ||
            w.variant == JoinVariant::kNestOuter) {
          // Erasing an optional node keeps its children optional.
          v = it->nested() || v == JoinVariant::kNestJoin ||
                      v == JoinVariant::kNestOuter
                  ? JoinVariant::kNestOuter
                  : JoinVariant::kLeftOuter;
        }
        stack.push_back({it->child, w.new_parent, Axis::kDescendant, v, true});
      }
      continue;
    }
    XamNodeId nid = out.AddNode(w.new_parent, w.axis, n.tag_value, w.variant,
                                n.name);
    XamNode& copy = out.node(nid);
    copy.is_attribute = n.is_attribute;
    copy.stores_id = n.stores_id;
    copy.id_kind = n.id_kind;
    copy.id_required = n.id_required;
    copy.stores_tag = n.stores_tag;
    copy.tag_required = n.tag_required;
    copy.stores_val = n.stores_val;
    copy.val_required = n.val_required;
    copy.val_formula = n.val_formula;
    copy.stores_cont = n.stores_cont;
    map[w.node] = nid;
    for (auto it = n.edges.rbegin(); it != n.edges.rend(); ++it) {
      stack.push_back({it->child, nid, it->axis, it->variant, false});
    }
  }
  return out;
}

}  // namespace

Result<std::vector<Xam>> MinimizeByContraction(const Xam& p,
                                               const PathSummary& summary) {
  std::vector<Xam> frontier{p};
  std::vector<Xam> minima;
  std::set<std::string> seen;
  seen.insert(PrintXam(p));
  while (!frontier.empty()) {
    Xam cur = std::move(frontier.back());
    frontier.pop_back();
    bool contracted = false;
    for (XamNodeId id = 1; id < cur.size(); ++id) {
      const XamNode& n = cur.node(id);
      if (n.returning() || n.has_required()) continue;
      if (!n.val_formula.IsTrue()) continue;  // value constraints stay
      Xam smaller = EraseNode(cur, id);
      ULOAD_ASSIGN_OR_RETURN(bool equiv, AreEquivalent(cur, smaller, summary));
      if (!equiv) continue;
      contracted = true;
      std::string key = PrintXam(smaller);
      if (seen.insert(std::move(key)).second) {
        frontier.push_back(std::move(smaller));
      }
    }
    if (!contracted) {
      bool dup = false;
      for (const Xam& m : minima) {
        if (m.StructurallyEquals(cur)) {
          dup = true;
          break;
        }
      }
      if (!dup) minima.push_back(std::move(cur));
    }
  }
  // Keep only globally smallest contraction minima? The thesis keeps all
  // contraction-minimal patterns; so do we.
  return minima;
}

Result<std::vector<Xam>> MinimizeGlobally(const Xam& p,
                                          const PathSummary& summary) {
  ULOAD_ASSIGN_OR_RETURN(std::vector<Xam> minima,
                         MinimizeByContraction(p, summary));
  int best = INT32_MAX;
  for (const Xam& m : minima) best = std::min(best, m.size());

  std::vector<XamNodeId> returns = p.ReturnNodes();
  if (returns.size() != 1) return minima;
  const XamNode& ret = p.node(returns[0]);

  // Candidate chains //l1//l2//...//ret built from labels on the summary
  // paths above the return node's annotations.
  AnnotationSets annots = PathAnnotations(p, summary);
  std::span<const SummaryNodeId> ret_paths = annots[returns[0]];
  std::set<std::string> labels;
  for (SummaryNodeId s : ret_paths) {
    for (SummaryNodeId cur = summary.node(s).parent; cur > 0;
         cur = summary.node(cur).parent) {
      labels.insert(summary.node(cur).label);
    }
  }

  std::vector<Xam> winners;
  auto consider = [&](const std::vector<std::string>& chain) -> Status {
    Xam cand;
    cand.set_ordered(p.ordered());
    XamNodeId cur = kXamRoot;
    for (const std::string& l : chain) {
      cur = cand.AddNode(cur, Axis::kDescendant, l);
    }
    XamNodeId last = cand.AddNode(cur, Axis::kDescendant, ret.tag_value);
    XamNode& copy = cand.node(last);
    copy.is_attribute = ret.is_attribute;
    copy.stores_id = ret.stores_id;
    copy.id_kind = ret.id_kind;
    copy.stores_tag = ret.stores_tag;
    copy.stores_val = ret.stores_val;
    copy.stores_cont = ret.stores_cont;
    copy.val_formula = ret.val_formula;
    ULOAD_ASSIGN_OR_RETURN(bool equiv, AreEquivalent(p, cand, summary));
    if (equiv) {
      if (cand.size() < best) {
        best = cand.size();
        winners.clear();
      }
      if (cand.size() == best) winners.push_back(std::move(cand));
    }
    return Status::Ok();
  };

  // Chains of length 0 and 1 (sizes 2 and 3 including ⊤ and return node).
  if (best > 2) {
    ULOAD_RETURN_NOT_OK(consider({}));
  }
  if (best > 3) {
    for (const std::string& l : labels) {
      ULOAD_RETURN_NOT_OK(consider({l}));
    }
  }
  if (!winners.empty()) return winners;
  // No strictly smaller chain: return contraction minima of the best size.
  std::vector<Xam> out;
  for (Xam& m : minima) {
    if (m.size() == best) out.push_back(std::move(m));
  }
  return out;
}

}  // namespace uload
