#include "containment/containment.h"

#include <algorithm>
#include <map>

namespace uload {
namespace {

// Conjunction of per-variable formulas; variables are canonical-tree node
// indices (§4.4.2's v_1..v_|S| specialized to the tree at hand).
using VarConjunction = std::map<int, ValueFormula>;

bool ConjAddAtom(VarConjunction* conj, int var, const ValueFormula& f) {
  auto it = conj->find(var);
  if (it == conj->end()) {
    conj->emplace(var, f);
    return !f.IsFalse();
  }
  it->second = it->second.And(f);
  return !it->second.IsFalse();
}

// A ⇒ B_1 ∨ ... ∨ B_m over per-variable interval formulas: search for a
// counter-model by picking, for every disjunct, one violated atom. `budget`
// bounds the search; exhaustion reports "does not imply" (sound: the test
// may fail where a longer search could succeed, never the other way).
bool ImpliesDisjunction(const std::vector<VarConjunction>& bs, size_t idx,
                        VarConjunction* current, int* budget) {
  if (--*budget < 0) return false;
  if (idx == bs.size()) {
    // All disjuncts violated under `current`, which is satisfiable:
    // counter-model found, so the implication does NOT hold.
    return false;
  }
  const VarConjunction& b = bs[idx];
  for (const auto& [var, f] : b) {
    VarConjunction next = *current;
    if (!ConjAddAtom(&next, var, f.Not())) continue;  // atom can't be violated
    if (!ImpliesDisjunction(bs, idx + 1, &next, budget)) return false;
  }
  // Every way of violating disjunct idx is unsatisfiable: implication holds
  // down this branch.
  return true;
}

bool Implies(const VarConjunction& a, const std::vector<VarConjunction>& bs) {
  VarConjunction current = a;
  for (const auto& [var, f] : current) {
    (void)var;
    if (f.IsFalse()) return true;  // vacuous premise
  }
  int budget = 100000;
  return ImpliesDisjunction(bs, 0, &current, &budget);
}

// Label/kind compatibility between a pattern node and a canonical node.
bool NodeMatches(const XamNode& pn, const CanonicalNode& cn) {
  if (pn.is_attribute) {
    return cn.kind == NodeKind::kAttribute &&
           (pn.tag_value.empty() || cn.label == pn.tag_value);
  }
  if (cn.kind != NodeKind::kElement) return false;
  return pn.is_wildcard() || cn.label == pn.tag_value;
}

// Enumerates embeddings of pattern q into canonical tree t with
// optional-edge semantics. An embedding assigns a canonical node (or -1 for
// ⊥) to every q node.
class TreeMatcher {
 public:
  TreeMatcher(const Xam& q, const CanonicalTree& t, const PathSummary& s)
      : q_(q), t_(t), s_(s) {
    // Precompute descendants lists of every canonical node.
    desc_.resize(t_.nodes.size());
    anc_chain_.resize(t_.nodes.size());
    for (size_t i = 0; i < t_.nodes.size(); ++i) {
      for (int cur = t_.nodes[i].parent; cur >= 0;
           cur = t_.nodes[cur].parent) {
        desc_[cur].push_back(static_cast<int>(i));
        anc_chain_[i].push_back(cur);
      }
    }
  }

  // Value guards: extra per-variable constraints an embedding choice
  // depends on — taking the ⊥ branch of an optional node whose formula can
  // fail requires the formula to fail on every structural candidate.
  using Guards = std::vector<std::pair<int, ValueFormula>>;

  // Calls `emit(image, guards)` with each embedding (image indexed by
  // XamNodeId, -1 = ⊥); emit returns false to stop the enumeration (e.g.
  // once the tree is already verified). Returns the number emitted.
  template <typename Fn>
  size_t Enumerate(const Fn& emit) {
    std::vector<int> image(q_.size(), -1);
    image[kXamRoot] = 0;
    size_t count = 0;
    Guards guards;
    stop_ = false;
    Recurse(q_.PreOrder(), 1, &image, &guards, emit, &count);
    return count;
  }

 private:
  // Whether the subtree of q rooted at `node` admits at least one embedding
  // below canonical node `at` (for the maximality of optional matches).
  bool SubtreeEmbeddable(XamNodeId node, int candidate) {
    const XamNode& pn = q_.node(node);
    if (!NodeMatches(pn, t_.nodes[candidate])) return false;
    // Value compatibility: the tree node's formula must be satisfiable with
    // the pattern's (structure check; precise value reasoning happens in the
    // §4.4.2 implication condition).
    if (t_.nodes[candidate].formula.And(pn.val_formula).IsFalse()) {
      return false;
    }
    for (const XamEdge& e : pn.edges) {
      if (e.optional()) continue;  // may map to ⊥
      bool found = false;
      for (int next : CandidatesBelow(candidate, e.axis)) {
        if (SubtreeEmbeddable(e.child, next)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  const std::vector<int>& CandidatesBelow(int at, Axis axis) const {
    return axis == Axis::kDescendant ? desc_[at] : t_.nodes[at].children;
  }

  // True if no node in the subtree of `node` except possibly `node` itself
  // carries a non-trivial formula.
  bool SubtreeFormulaFreeBelow(XamNodeId node) const {
    for (const XamEdge& e : q_.node(node).edges) {
      if (!q_.node(e.child).val_formula.IsTrue()) return false;
      if (!SubtreeFormulaFreeBelow(e.child)) return false;
    }
    return true;
  }

  template <typename Fn>
  void Recurse(const std::vector<XamNodeId>& order, size_t idx,
               std::vector<int>* image, Guards* guards, const Fn& emit,
               size_t* count) {
    if (idx == order.size()) {
      if (!emit(*image, *guards)) stop_ = true;
      ++*count;
      return;
    }
    if (stop_) return;
    XamNodeId node = order[idx];
    const XamNode& pn = q_.node(node);
    const XamEdge& edge = q_.IncomingEdge(node);
    int base = (*image)[pn.parent];
    if (base < 0) {
      // Parent is ⊥: the whole subtree is ⊥ (only legal under optionals,
      // which is guaranteed because a ⊥ parent was itself optional).
      (*image)[node] = -1;
      Recurse(order, idx + 1, image, guards, emit, count);
      return;
    }
    // Collect viable candidates.
    std::vector<int> cands;
    for (int cand : CandidatesBelow(base, edge.axis)) {
      if (!NodeMatches(pn, t_.nodes[cand])) continue;
      if (t_.nodes[cand].formula.And(pn.val_formula).IsFalse()) continue;
      if (SubtreeEmbeddable(node, cand)) cands.push_back(cand);
    }
    if (cands.empty()) {
      if (!edge.optional()) return;  // dead end
      (*image)[node] = -1;
      Recurse(order, idx + 1, image, guards, emit, count);
      return;
    }
    // Maximality: when matches exist, an optional node must take one.
    for (int cand : cands) {
      if (stop_) return;
      (*image)[node] = cand;
      Recurse(order, idx + 1, image, guards, emit, count);
    }
    (*image)[node] = -1;
    // Value-aware ⊥ branch (§4.1 optional embeddings over decorated trees):
    // the match may still fail on *values*. When the node's own formula is
    // the only one in its subtree, ⊥ is legal exactly when every structural
    // candidate violates the formula — emit the choice guarded by ¬formula
    // on each candidate.
    if (edge.optional() && !pn.val_formula.IsTrue() &&
        SubtreeFormulaFreeBelow(node)) {
      ValueFormula negated = pn.val_formula.Not();
      size_t added = 0;
      bool possible = true;
      for (int cand : cands) {
        if (t_.nodes[cand].formula.And(negated).IsFalse()) {
          // This candidate always satisfies the formula: ⊥ impossible.
          possible = false;
          break;
        }
        guards->emplace_back(cand, negated);
        ++added;
      }
      if (possible) {
        Recurse(order, idx + 1, image, guards, emit, count);
      }
      guards->resize(guards->size() - added);
    }
  }

  const Xam& q_;
  const CanonicalTree& t_;
  [[maybe_unused]] const PathSummary& s_;
  std::vector<std::vector<int>> desc_;
  std::vector<std::vector<int>> anc_chain_;
  bool stop_ = false;
};

// Attribute-spec pairing (Prop. 4.4.3 condition 1).
bool AttributesCompatible(const Xam& p, const Xam& q) {
  std::vector<XamNodeId> pr = p.ReturnNodes();
  std::vector<XamNodeId> qr = q.ReturnNodes();
  if (pr.size() != qr.size()) return false;
  for (size_t i = 0; i < pr.size(); ++i) {
    const XamNode& a = p.node(pr[i]);
    const XamNode& b = q.node(qr[i]);
    if (a.stores_id != b.stores_id || a.stores_tag != b.stores_tag ||
        a.stores_val != b.stores_val || a.stores_cont != b.stores_cont) {
      return false;
    }
  }
  return true;
}

// Nesting depths per return node (Prop. 4.4.4 condition 2a).
bool NestingDepthsCompatible(const Xam& p, const Xam& q) {
  std::vector<XamNodeId> pr = p.ReturnNodes();
  std::vector<XamNodeId> qr = q.ReturnNodes();
  if (pr.size() != qr.size()) return false;
  for (size_t i = 0; i < pr.size(); ++i) {
    if (p.NestingDepth(pr[i]) != q.NestingDepth(qr[i])) return false;
  }
  return true;
}

// Nesting sequence of `node` under an image assignment: summary paths of the
// nested-edge ancestors, outermost first. `paths` maps pattern node -> path.
std::vector<SummaryNodeId> NestingSequence(
    const Xam& x, XamNodeId node, const std::vector<SummaryNodeId>& paths) {
  std::vector<SummaryNodeId> seq;
  for (XamNodeId cur = node; cur != kXamRoot; cur = x.node(cur).parent) {
    if (x.IncomingEdge(cur).nested()) seq.push_back(paths[cur]);
  }
  std::reverse(seq.begin(), seq.end());
  return seq;
}

bool SequencesCompatible(const std::vector<SummaryNodeId>& a,
                         const std::vector<SummaryNodeId>& b,
                         const PathSummary& s) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    if (a[i] == kNoSummaryNode || b[i] == kNoSummaryNode) return false;
    // One-to-one relaxation (§4.4.5): nesting under s1 equals nesting under
    // its child s2 when every edge between them is 1-annotated.
    if (!s.AllOneToOneBetween(a[i], b[i]) &&
        !s.AllOneToOneBetween(b[i], a[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> IsContainedInUnion(const Xam& p, const std::vector<const Xam*>& qs,
                                const PathSummary& summary,
                                const ContainmentOptions& opts,
                                ContainmentStats* stats) {
  // Candidate q's must agree on arity/attributes (Prop. 4.4.3) and nesting
  // depths (Prop. 4.4.4 2a).
  std::vector<const Xam*> usable;
  for (const Xam* q : qs) {
    if (opts.check_attributes && !AttributesCompatible(p, *q)) continue;
    if (!opts.check_attributes &&
        p.ReturnNodes().size() != q->ReturnNodes().size()) {
      continue;
    }
    if (!NestingDepthsCompatible(p, *q)) continue;
    usable.push_back(q);
  }
  if (usable.empty()) {
    // p ⊆ ∅-union only when p itself is unsatisfiable.
    return !IsSatisfiable(p, summary);
  }

  const bool nested_check = p.HasNestedEdges();
  std::vector<XamNodeId> p_returns = p.ReturnNodes();

  // Lazy enumeration: stop at the first canonical tree that refutes
  // containment (this is why negative tests run faster, §4.6).
  bool contained = true;
  size_t model_size = 0;
  bool complete = ForEachCanonicalTree(p, summary, opts.model_limit,
                                       [&](CanonicalTree& t) {
    ++model_size;
    // Strong closure: nodes that every conforming document is guaranteed to
    // contain alongside t (enhanced summary, §4.2.2). Container patterns may
    // match them; return positions may not (they are not p's nodes).
    AugmentWithStrongClosure(summary, &t);
    // Φ_te: conjunction of the tree's node formulas.
    VarConjunction phi_te;
    for (size_t i = 0; i < t.nodes.size(); ++i) {
      if (!t.nodes[i].formula.IsTrue()) {
        ConjAddAtom(&phi_te, static_cast<int>(i), t.nodes[i].formula);
      }
    }
    // p's nesting sequences under this tree (paths of p-node images).
    std::vector<SummaryNodeId> p_paths(p.size(), kNoSummaryNode);
    for (XamNodeId id = 0; id < p.size(); ++id) {
      if (t.image[id] >= 0) p_paths[id] = t.nodes[t.image[id]].path;
    }

    std::vector<VarConjunction> phis;
    bool tree_ok = false;  // an embedding free of value constraints
                           // verifies the tree outright
    for (const Xam* q : usable) {
      if (tree_ok) break;
      std::vector<XamNodeId> q_returns = q->ReturnNodes();
      TreeMatcher matcher(*q, t, summary);
      matcher.Enumerate([&](const std::vector<int>& image,
                            const TreeMatcher::Guards& guards) -> bool {
        // Return-tuple condition: the container's return nodes must land on
        // exactly p's return images ("same return nodes", Prop. 4.4.1(2)).
        for (size_t i = 0; i < q_returns.size(); ++i) {
          if (image[q_returns[i]] != t.return_images[i]) return true;
        }
        // Nesting sequences (Prop. 4.4.4 2b).
        if (nested_check || q->HasNestedEdges()) {
          std::vector<SummaryNodeId> q_paths(q->size(), kNoSummaryNode);
          for (XamNodeId id = 0; id < q->size(); ++id) {
            if (image[id] >= 0) q_paths[id] = t.nodes[image[id]].path;
          }
          for (size_t i = 0; i < q_returns.size(); ++i) {
            if (!SequencesCompatible(
                    NestingSequence(p, p_returns[i], p_paths),
                    NestingSequence(*q, q_returns[i], q_paths), summary)) {
              return true;
            }
          }
        }
        // Φ_m: the value constraints q imposes under this embedding, plus
        // the guards justifying value-dependent ⊥ choices.
        VarConjunction phi_m;
        bool sat = true;
        for (XamNodeId id = 1; id < q->size(); ++id) {
          if (image[id] < 0) continue;
          const ValueFormula& f = q->node(id).val_formula;
          if (!f.IsTrue() && !ConjAddAtom(&phi_m, image[id], f)) {
            sat = false;
            break;
          }
        }
        for (const auto& [var, f] : guards) {
          if (!ConjAddAtom(&phi_m, var, f)) {
            sat = false;
            break;
          }
        }
        if (!sat) return true;
        if (phi_m.empty()) {
          // No value constraints: this embedding alone verifies the tree.
          tree_ok = true;
          return false;  // stop matching this tree
        }
        phis.push_back(std::move(phi_m));
        // Incremental coverage: stop as soon as the accumulated disjunction
        // already covers the tree's constraints (§4.4.2's condition). The
        // size cap keeps adversarial cases bounded; truncation can only
        // make the test fail, never wrongly succeed (sound).
        if (Implies(phi_te, phis)) {
          tree_ok = true;
          return false;
        }
        return phis.size() < 64;
      });
      if (stats != nullptr) stats->embeddings_checked += phis.size();
    }
    if (!tree_ok) {
      contained = false;
      return false;  // stop the enumeration
    }
    return true;
  });
  // Only a refuting tree stops the enumeration early, so an incomplete one
  // that left `contained` standing hit the model cap: the trees never
  // checked could refute containment.
  bool truncated = !complete && contained;
  if (stats != nullptr) {
    stats->canonical_model_size = model_size;
    stats->truncated = stats->truncated || truncated;
  }
  return contained && !truncated;
}

Result<bool> IsContained(const Xam& p, const Xam& q,
                         const PathSummary& summary,
                         const ContainmentOptions& opts,
                         ContainmentStats* stats) {
  return IsContainedInUnion(p, {&q}, summary, opts, stats);
}

Result<bool> AreEquivalent(const Xam& p, const Xam& q,
                           const PathSummary& summary,
                           const ContainmentOptions& opts,
                           ContainmentStats* stats) {
  ULOAD_ASSIGN_OR_RETURN(bool a, IsContained(p, q, summary, opts, stats));
  if (!a) return false;
  return IsContained(q, p, summary, opts, stats);
}

bool AnnotationsRefuteContainment(const Xam& p, const AnnotationSets& p_ann,
                                  const Xam& q, const AnnotationSets& q_ann) {
  for (XamNodeId id = 0; id < p.size(); ++id) {
    if (p.node(id).val_formula.IsFalse()) return false;
  }
  std::vector<XamNodeId> p_returns = p.ReturnNodes();
  std::vector<XamNodeId> q_returns = q.ReturnNodes();
  if (p_returns.size() != q_returns.size()) return false;
  for (size_t i = 0; i < p_returns.size(); ++i) {
    std::span<const SummaryNodeId> allowed = q_ann[q_returns[i]];
    for (SummaryNodeId s : p_ann[p_returns[i]]) {
      if (std::find(allowed.begin(), allowed.end(), s) == allowed.end()) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace uload
