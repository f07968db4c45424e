#include "xquery/translate.h"

#include <map>
#include <unordered_map>

#include "eval/xam_eval.h"
#include "xam/xam_printer.h"

namespace uload {
namespace {

class Translator {
 public:
  Result<Translation> Run(const Expr& q) {
    Scope root;
    ULOAD_ASSIGN_OR_RETURN(std::vector<TemplateNode> roots,
                           TrExpr(q, root, /*grouped=*/false));
    Translation tr;
    tr.patterns = std::move(patterns_);
    for (Xam& p : tr.patterns) p.set_ordered(true);
    tr.cross_predicates = std::move(cross_preds_);
    tr.compensations = std::move(compensations_);
    tr.templ.roots = std::move(roots);
    return tr;
  }

 private:
  // Template/translation scope: either the root tuple, or the contents of a
  // nested collection the template iterates over.
  struct Scope {
    bool root = true;
    int pattern = -1;
    XamNodeId entry = -1;     // collection entry node of the scope
    std::string prefix;       // root-relative dotted prefix of scope contents
  };

  struct VarBinding {
    int pattern = -1;
    XamNodeId node = -1;
  };

  std::vector<Xam> patterns_;
  std::map<std::string, VarBinding> vars_;
  std::map<std::string, PathExpr> lets_;
  std::vector<PredicatePtr> cross_preds_;
  std::vector<PredicatePtr> compensations_;
  int name_counter_ = 1;

  std::string FreshName() { return "n" + std::to_string(name_counter_++); }

  // Expands let aliases: a path rooted at a let variable becomes the
  // aliased path with this path's steps appended (pure-path splice).
  PathExpr ExpandLets(PathExpr p) const {
    while (!p.variable.empty()) {
      auto it = lets_.find(p.variable);
      if (it == lets_.end()) break;
      PathExpr base = it->second;
      base.steps.insert(base.steps.end(), p.steps.begin(), p.steps.end());
      base.text_result = p.text_result;
      p = std::move(base);
    }
    return p;
  }

  // --- Pattern-side helpers ------------------------------------------------

  // Adds the chain of `steps` below `from` in pattern `p`; the first edge
  // uses `entry_variant`, later edges are inner joins. Qualifiers become
  // semijoin sub-chains with value formulas. Returns the final node.
  Result<XamNodeId> AttachChain(int p, XamNodeId from,
                                const std::vector<PathStep>& steps,
                                JoinVariant entry_variant) {
    Xam& x = patterns_[p];
    XamNodeId cur = from;
    for (size_t i = 0; i < steps.size(); ++i) {
      const PathStep& s = steps[i];
      JoinVariant variant = i == 0 ? entry_variant : JoinVariant::kInner;
      Axis axis = s.descendant ? Axis::kDescendant : Axis::kChild;
      XamNodeId next;
      if (!s.label.empty() && s.label[0] == '@') {
        if (s.descendant) {
          return Status::NotImplemented("'//@attr' steps are not supported");
        }
        next = x.AddAttributeNode(cur, s.label.substr(1), variant,
                                  FreshName());
      } else {
        next = x.AddNode(cur, axis, s.label, variant, FreshName());
      }
      for (const PathStep::Qualifier& q : s.qualifiers) {
        ULOAD_RETURN_NOT_OK(AttachQualifier(p, next, q));
      }
      cur = next;
    }
    return cur;
  }

  Status AttachQualifier(int p, XamNodeId node,
                         const PathStep::Qualifier& q) {
    Xam& x = patterns_[p];
    if (!q.rel_path) {
      // [text() θ c] on the node itself.
      x.ValPredicate(node, x.node(node).val_formula.And(ValueFormula::Atom(
                               q.cmp, q.constant)));
      return Status::Ok();
    }
    ULOAD_ASSIGN_OR_RETURN(
        XamNodeId last,
        AttachChain(p, node, q.rel_path->steps, JoinVariant::kSemi));
    if (q.has_comparison) {
      x.ValPredicate(last, x.node(last).val_formula.And(ValueFormula::Atom(
                               q.cmp, q.constant)));
    }
    return Status::Ok();
  }

  // --- Expression translation ----------------------------------------------

  // `grouped` is true when the expression occurs inside an element
  // constructor whose single instantiation must absorb all matches.
  Result<std::vector<TemplateNode>> TrExpr(const Expr& e, Scope& scope,
                                           bool grouped) {
    switch (e.kind) {
      case Expr::Kind::kPath: {
        ULOAD_ASSIGN_OR_RETURN(TemplateNode ref,
                               TrReturnPath(e.path, scope, grouped));
        return std::vector<TemplateNode>{std::move(ref)};
      }
      case Expr::Kind::kConcat: {
        std::vector<TemplateNode> out;
        for (const ExprPtr& item : e.items) {
          ULOAD_ASSIGN_OR_RETURN(std::vector<TemplateNode> sub,
                                 TrExpr(*item, scope, grouped));
          for (TemplateNode& n : sub) out.push_back(std::move(n));
        }
        return out;
      }
      case Expr::Kind::kElement: {
        std::vector<TemplateNode> content;
        for (const ExprPtr& item : e.element.content) {
          ULOAD_ASSIGN_OR_RETURN(std::vector<TemplateNode> sub,
                                 TrExpr(*item, scope, /*grouped=*/true));
          for (TemplateNode& n : sub) content.push_back(std::move(n));
        }
        return std::vector<TemplateNode>{
            TemplateNode::Element(e.element.tag, std::move(content))};
      }
      case Expr::Kind::kFlwr:
        return TrFlwr(e.flwr, scope, grouped);
    }
    return Status::Internal("unhandled expression kind");
  }

  Result<std::vector<TemplateNode>> TrFlwr(const FlwrExpr& f, Scope& scope,
                                           bool grouped) {
    if (scope.root && !grouped) {
      return TrTopLevelFlwr(f, scope);
    }
    return TrNestedFlwr(f, scope);
  }

  Result<std::vector<TemplateNode>> TrTopLevelFlwr(const FlwrExpr& f,
                                                   Scope& scope) {
    // Bindings: absolute paths open fresh patterns; variable-rooted paths
    // chain inside the referenced variable's pattern (j edges — a missing
    // binding removes the iteration).
    for (const ForBinding& b : f.bindings) {
      ULOAD_ASSIGN_OR_RETURN(VarBinding vb,
                             BindForVariable(b, JoinVariant::kInner));
      vars_[b.variable] = vb;
    }
    for (const LetBinding& lb : f.lets) {
      lets_[lb.variable] = ExpandLets(lb.path);
    }
    ULOAD_RETURN_NOT_OK(TrWhere(f.where, /*allow_cross=*/true));
    return TrExpr(*f.ret, scope, /*grouped=*/false);
  }

  Result<VarBinding> BindForVariable(const ForBinding& binding,
                                     JoinVariant entry_variant) {
    ForBinding b = binding;
    b.path = ExpandLets(std::move(b.path));
    if (b.path.text_result) {
      return Status::InvalidArgument("cannot bind a variable to text()");
    }
    if (b.path.absolute()) {
      patterns_.emplace_back();
      int p = static_cast<int>(patterns_.size()) - 1;
      ULOAD_ASSIGN_OR_RETURN(
          XamNodeId node,
          AttachChain(p, kXamRoot, b.path.steps, JoinVariant::kInner));
      patterns_[p].StoreId(node, IdKind::kSimple);
      return VarBinding{p, node};
    }
    auto it = vars_.find(b.path.variable);
    if (it == vars_.end()) {
      return Status::InvalidArgument("unbound variable " + b.path.variable);
    }
    int p = it->second.pattern;
    ULOAD_ASSIGN_OR_RETURN(
        XamNodeId node,
        AttachChain(p, it->second.node, b.path.steps, entry_variant));
    patterns_[p].StoreId(node, IdKind::kSimple);
    return VarBinding{p, node};
  }

  Status TrWhere(const std::vector<WhereCondition>& conditions,
                 bool allow_cross) {
    for (const WhereCondition& raw : conditions) {
      WhereCondition w = raw;
      w.lhs = ExpandLets(std::move(w.lhs));
      if (w.rhs_is_path) w.rhs = ExpandLets(std::move(w.rhs));
      if (w.lhs.absolute()) {
        return Status::NotImplemented(
            "absolute paths in where clauses are not supported");
      }
      auto it = vars_.find(w.lhs.variable);
      if (it == vars_.end()) {
        return Status::InvalidArgument("unbound variable " + w.lhs.variable);
      }
      int p = it->second.pattern;
      bool needs_cross =
          w.has_comparison &&
          (w.rhs_is_path || w.cmp == Comparator::kContainsWord);
      if (!needs_cross) {
        // Existence / θ-constant: semijoin chain with a value formula.
        ULOAD_ASSIGN_OR_RETURN(
            XamNodeId last,
            AttachChain(p, it->second.node, w.lhs.steps, JoinVariant::kSemi));
        if (w.has_comparison) {
          Xam& x = patterns_[p];
          x.ValPredicate(last, x.node(last).val_formula.And(ValueFormula::Atom(
                                   w.cmp, w.constant)));
        }
        continue;
      }
      if (!allow_cross) {
        return Status::NotImplemented(
            "cross-variable / contains predicates are only supported in the "
            "top-level where clause");
      }
      // Path θ path (value join) or contains: store values via nest-outer
      // chains and evaluate on the pattern product.
      ULOAD_ASSIGN_OR_RETURN(
          XamNodeId lnode,
          AttachChain(p, it->second.node, w.lhs.steps,
                      JoinVariant::kNestOuter));
      patterns_[p].StoreVal(lnode);
      std::string lattr = patterns_[p].AttrPath(lnode, "_Val");
      if (w.cmp == Comparator::kContainsWord) {
        cross_preds_.push_back(Predicate::CompareConst(
            lattr, Comparator::kContainsWord, w.constant));
        continue;
      }
      auto rit = vars_.find(w.rhs.variable);
      if (w.rhs.absolute() || rit == vars_.end()) {
        return Status::NotImplemented(
            "right-hand side of a value join must be variable-rooted");
      }
      int rp = rit->second.pattern;
      ULOAD_ASSIGN_OR_RETURN(
          XamNodeId rnode,
          AttachChain(rp, rit->second.node, w.rhs.steps,
                      JoinVariant::kNestOuter));
      patterns_[rp].StoreVal(rnode);
      std::string rattr = patterns_[rp].AttrPath(rnode, "_Val");
      cross_preds_.push_back(Predicate::CompareAttrs(lattr, w.cmp, rattr));
    }
    return Status::Ok();
  }

  Result<std::vector<TemplateNode>> TrNestedFlwr(const FlwrExpr& f,
                                                 Scope& scope) {
    if (f.bindings.empty()) {
      return Status::InvalidArgument("FLWR without bindings");
    }
    // The first binding's entry hangs with a nest-outer edge; everything
    // else of this block lives inside that collection.
    ForBinding first = f.bindings[0];
    first.path = ExpandLets(std::move(first.path));
    if (first.path.absolute()) {
      if (!scope.root) {
        return Status::NotImplemented(
            "absolute for-paths in nested blocks are not supported");
      }
      // Grouped top-level FLWR (inside a constructor): hang from ⊤.
      patterns_.emplace_back();
      int p = static_cast<int>(patterns_.size()) - 1;
      ULOAD_ASSIGN_OR_RETURN(
          XamNodeId node,
          AttachChain(p, kXamRoot, first.path.steps, JoinVariant::kNestOuter));
      patterns_[p].StoreId(node, IdKind::kSimple);
      vars_[first.variable] = VarBinding{p, node};
      return FinishNestedFlwr(f, p, EntryOf(p, node), scope);
    }
    auto it = vars_.find(first.path.variable);
    if (it == vars_.end()) {
      return Status::InvalidArgument("unbound variable " +
                                     first.path.variable);
    }
    int p = it->second.pattern;
    ULOAD_ASSIGN_OR_RETURN(
        XamNodeId node,
        AttachChain(p, it->second.node, first.path.steps,
                    JoinVariant::kNestOuter));
    patterns_[p].StoreId(node, IdKind::kSimple);
    vars_[first.variable] = VarBinding{p, node};
    return FinishNestedFlwr(f, p, EntryOf(p, node), scope);
  }

  // The nested-collection entry node above (or equal to) `node`: the nearest
  // ancestor-or-self whose incoming edge is nested.
  XamNodeId EntryOf(int p, XamNodeId node) const {
    const Xam& x = patterns_[p];
    for (XamNodeId cur = node; cur != kXamRoot; cur = x.node(cur).parent) {
      if (x.IncomingEdge(cur).nested()) return cur;
    }
    return node;
  }

  Result<std::vector<TemplateNode>> FinishNestedFlwr(const FlwrExpr& f, int p,
                                                     XamNodeId entry,
                                                     Scope& scope) {
    // Remaining bindings must chain from this block's variables (or deeper);
    // they use inner joins so the whole tuple vanishes when unmatched.
    for (size_t i = 1; i < f.bindings.size(); ++i) {
      ULOAD_ASSIGN_OR_RETURN(
          VarBinding vb,
          BindForVariable(f.bindings[i], JoinVariant::kInner));
      if (vb.pattern != p) {
        return Status::NotImplemented(
            "nested blocks must bind structurally related variables");
      }
      vars_[f.bindings[i].variable] = vb;
    }
    for (const LetBinding& lb : f.lets) {
      lets_[lb.variable] = ExpandLets(lb.path);
    }
    ULOAD_RETURN_NOT_OK(TrWhere(f.where, /*allow_cross=*/false));

    // New template scope: the entry collection. NestedPrefix(entry) already
    // ends with "<entry>." because the entry's own incoming edge is nested.
    Scope inner;
    inner.root = false;
    inner.pattern = p;
    inner.entry = entry;
    inner.prefix = patterns_[p].NestedPrefix(entry);

    // Collection attribute path relative to the enclosing scope (the prefix
    // without its trailing dot).
    std::string coll_root = inner.prefix.substr(0, inner.prefix.size() - 1);
    std::string coll_rel;
    if (scope.root) {
      coll_rel = coll_root;
    } else {
      if (scope.pattern != p || coll_root.rfind(scope.prefix, 0) != 0) {
        return Status::NotImplemented(
            "nested block is not within the enclosing template scope");
      }
      coll_rel = coll_root.substr(scope.prefix.size());
    }
    if (coll_rel.find('.') != std::string::npos) {
      return Status::Internal("nested iterate path is not single-level: " +
                              coll_rel);
    }

    if (f.ret->kind == Expr::Kind::kElement) {
      std::vector<TemplateNode> content;
      for (const ExprPtr& item : f.ret->element.content) {
        ULOAD_ASSIGN_OR_RETURN(std::vector<TemplateNode> sub,
                               TrExpr(*item, inner, /*grouped=*/true));
        for (TemplateNode& n : sub) content.push_back(std::move(n));
      }
      return std::vector<TemplateNode>{TemplateNode::Element(
          f.ret->element.tag, std::move(content), coll_rel)};
    }
    ULOAD_ASSIGN_OR_RETURN(std::vector<TemplateNode> content,
                           TrExpr(*f.ret, inner, /*grouped=*/true));
    return std::vector<TemplateNode>{
        TemplateNode::Group(std::move(content), coll_rel)};
  }

  Result<TemplateNode> TrReturnPath(const PathExpr& raw_path, Scope& scope,
                                    bool grouped) {
    PathExpr path = ExpandLets(raw_path);
    if (path.absolute()) {
      if (!scope.root) {
        return Status::NotImplemented(
            "absolute paths inside nested blocks are not supported");
      }
      patterns_.emplace_back();
      int p = static_cast<int>(patterns_.size()) - 1;
      JoinVariant entry =
          grouped ? JoinVariant::kNestOuter : JoinVariant::kInner;
      ULOAD_ASSIGN_OR_RETURN(
          XamNodeId node, AttachChain(p, kXamRoot, path.steps, entry));
      MarkOutput(p, node, path.text_result);
      bool value_out = path.text_result || patterns_[p].node(node).is_attribute;
      return TemplateNode::ValueRef(
          patterns_[p].AttrPath(node, value_out ? "_Val" : "_Cont"),
          /*raw=*/!value_out);
    }
    auto it = vars_.find(path.variable);
    if (it == vars_.end()) {
      return Status::InvalidArgument("unbound variable " + path.variable);
    }
    int p = it->second.pattern;
    XamNodeId node;
    if (path.steps.empty()) {
      // Returning the variable itself: make sure its content is stored.
      node = it->second.node;
      MarkOutput(p, node, path.text_result);
    } else {
      ULOAD_ASSIGN_OR_RETURN(
          node, AttachChain(p, it->second.node, path.steps,
                            JoinVariant::kNestOuter));
      MarkOutput(p, node, path.text_result);
    }
    // Attribute results serialize as their value, like text().
    bool value_out = path.text_result || patterns_[p].node(node).is_attribute;
    const std::string suffix = value_out ? "_Val" : "_Cont";
    const bool raw = !value_out;
    std::string root_attr = patterns_[p].AttrPath(node, suffix);

    if (scope.root) {
      return TemplateNode::ValueRef(root_attr, raw);
    }
    if (scope.pattern == p && root_attr.rfind(scope.prefix, 0) == 0) {
      return TemplateNode::ValueRef(root_attr.substr(scope.prefix.size()),
                                    raw);
    }
    // Outer-variable reference inside a nested block (§3.3.3): emit an
    // absolute reference and record the compensating selection — the
    // pattern alone stores this data for *every* outer tuple, but the query
    // only exposes it when the block's collection is non-empty:
    //   (entry_ID not null) ∨ (entry_ID null ∧ ref null).
    std::string entry_id =
        patterns_[scope.pattern].AttrPath(scope.entry, "_ID");
    compensations_.push_back(Predicate::Or(
        Predicate::NotNull(entry_id),
        Predicate::And(Predicate::IsNull(entry_id),
                       Predicate::IsNull(root_attr))));
    return TemplateNode::ValueRef(root_attr, raw, /*absolute=*/true);
  }

  void MarkOutput(int p, XamNodeId node, bool text_result) {
    // The node identity is part of the query's needs: XPath semantics
    // deduplicate *nodes*, not serialized values (the π⁰ of §3.3.1), and
    // rewritings may need the identifier to regroup fragments. Only the
    // *identity* property is demanded (IdKind::kSimple) — any stored id
    // representation can serve it.
    patterns_[p].StoreId(node, IdKind::kSimple);
    if (text_result || patterns_[p].node(node).is_attribute) {
      patterns_[p].StoreVal(node);
    } else {
      patterns_[p].StoreCont(node);
    }
  }
};

}  // namespace

std::string Translation::ToString() const {
  std::string out;
  for (size_t i = 0; i < patterns.size(); ++i) {
    out += "pattern V" + std::to_string(i + 1) + ":\n";
    out += PrintXam(patterns[i]);
  }
  for (const PredicatePtr& p : cross_predicates) {
    out += "where: " + p->ToString() + "\n";
  }
  for (const PredicatePtr& p : compensations) {
    out += "compensation: " + p->ToString() + "\n";
  }
  out += "template: " + templ.ToString() + "\n";
  return out;
}

Result<Translation> TranslateQuery(const Expr& q) {
  Translator t;
  return t.Run(q);
}

Result<std::string> EvaluateTranslated(const Translation& tr,
                                       const DocumentStore& doc) {
  if (tr.patterns.empty()) {
    // Constant query (no data access): apply the template to one empty tuple.
    NestedRelation unit(Schema::Make({}));
    unit.Add(Tuple{});
    return ApplyTemplate(tr.templ, unit);
  }
  // Materialize every pattern, then product + filters + template.
  std::vector<NestedRelation> mats;
  mats.reserve(tr.patterns.size());
  for (const Xam& p : tr.patterns) {
    ULOAD_ASSIGN_OR_RETURN(NestedRelation r, EvaluateXam(p, doc));
    mats.push_back(std::move(r));
  }
  NestedRelation cur = std::move(mats[0]);
  for (size_t i = 1; i < mats.size(); ++i) {
    NestedRelation product(Schema::Concat(cur.schema(), mats[i].schema()),
                           cur.kind());
    for (const Tuple& l : cur.tuples()) {
      for (const Tuple& r : mats[i].tuples()) {
        product.Add(ConcatTuples(l, r));
      }
    }
    cur = std::move(product);
  }
  for (const PredicatePtr& pred : tr.cross_predicates) {
    NestedRelation filtered(cur.schema_ptr(), cur.kind());
    for (const Tuple& t : cur.tuples()) {
      ULOAD_ASSIGN_OR_RETURN(bool keep, pred->Eval(cur.schema(), t));
      if (keep) filtered.Add(t);
    }
    cur = std::move(filtered);
  }
  return ApplyTemplate(tr.templ, cur);
}

}  // namespace uload
