#include "rewrite/rewriter.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>

#include "containment/containment.h"
#include "opt/cost.h"
#include "xam/xam_printer.h"

namespace uload {
namespace {

// A (plan, pattern) pair plus bookkeeping during the search.
struct Candidate {
  PlanPtr plan;
  Xam pattern;
  // PathAnnotations(pattern), shared by copies: recomputed only by edits
  // that change the pattern's structure or labels (Reannotate).
  std::shared_ptr<const AnnotationSets> ann;
  // Pattern attribute (dotted path) -> plan column (dotted path). Only
  // entries that differ from the identity are stored.
  std::map<std::string, std::string> aliases;
  std::vector<std::string> views;

  std::string PlanColumn(const std::string& pattern_attr) const {
    auto it = aliases.find(pattern_attr);
    return it == aliases.end() ? pattern_attr : it->second;
  }
};

// Dotted attribute path of `id`'s attribute with `suffix` in pattern `x`
// (prefix of nested-collection entries above, including `id` itself when
// its incoming edge is nested).
std::string PatternAttr(const Xam& x, XamNodeId id, const char* suffix) {
  std::string prefix;
  std::vector<const std::string*> parts;
  for (XamNodeId cur = id; cur != kXamRoot; cur = x.node(cur).parent) {
    if (x.IncomingEdge(cur).nested()) parts.push_back(&x.node(cur).name);
  }
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    prefix += **it;
    prefix += '.';
  }
  return prefix + x.node(id).name + suffix;
}

// All (node, attr-suffix) pairs a pattern stores, in view-schema order.
struct StoredAttr {
  XamNodeId node;
  const char* suffix;
};

void CollectStored(const Xam& x, XamNodeId id, std::vector<StoredAttr>* out) {
  const XamNode& n = x.node(id);
  if (id != kXamRoot) {
    if (n.stores_id) out->push_back({id, "_ID"});
    if (n.stores_tag) out->push_back({id, "_Tag"});
    if (n.stores_val) out->push_back({id, "_Val"});
    if (n.stores_cont) out->push_back({id, "_Cont"});
  }
  for (const XamEdge& e : n.edges) {
    if (e.semi()) continue;
    CollectStored(x, e.child, out);
  }
}

// Search bounds (§5.5): candidate plans combine at most this many views,
// and the candidate pool stops growing at this size.
constexpr int kMaxViewsPerPlan = 3;
constexpr size_t kMaxCandidates = 4000;

bool IdKindAtLeast(IdKind kind, IdKind needed) {
  return static_cast<int>(kind) >= static_cast<int>(needed);
}

// Annotation tests: `outer` contains every summary node of `inner`; `a` and
// `b` share a summary node.
bool Covers(std::span<const SummaryNodeId> outer,
            std::span<const SummaryNodeId> inner) {
  return std::all_of(inner.begin(), inner.end(), [&](SummaryNodeId s) {
    return std::find(outer.begin(), outer.end(), s) != outer.end();
  });
}

bool Intersects(std::span<const SummaryNodeId> a,
                std::span<const SummaryNodeId> b) {
  return std::any_of(a.begin(), a.end(), [&](SummaryNodeId s) {
    return std::find(b.begin(), b.end(), s) != b.end();
  });
}

// Whether pattern node `c` stores every attribute query node `q` stores.
bool StoresAll(const XamNode& c, const XamNode& q) {
  return (!q.stores_id || c.stores_id) && (!q.stores_tag || c.stores_tag) &&
         (!q.stores_val || c.stores_val) && (!q.stores_cont || c.stores_cont);
}

// ---------------------------------------------------------------------------
// The search engine.
// ---------------------------------------------------------------------------

class Search {
 public:
  Search(const PathSummary& summary, const std::vector<Rewriter::View>& views,
         const std::unordered_map<std::string, double>& cards,
         const RewriteOptions& opts, RewriteStats* stats)
      : summary_(summary),
        views_(views),
        cards_(cards),
        opts_(opts),
        stats_(stats) {}

  Result<std::vector<Rewriting>> Run(const Xam& query) {
    query_ = &query;
    query_returns_ = query.ReturnNodes();
    query_ann_ = PathAnnotations(query, summary_);

    BuildSeeds();
    std::vector<Candidate> all = seeds_;
    // Navigation extensions (§5.2/§5.4) on seeds first: cover query nodes
    // absent from every view by navigating from stored identifiers; the
    // extended candidates participate in compositions like any other.
    size_t n = all.size();
    for (size_t i = 0; i < n; ++i) {
      auto extended = NavigationExtended(all[i]);
      if (extended.has_value()) all.push_back(std::move(*extended));
    }
    // The latest level of compositions is all[level_begin, level_end).
    size_t level_begin = 0;
    size_t level_end = all.size();
    for (int k = 2; k <= kMaxViewsPerPlan && all.size() < kMaxCandidates;
         ++k) {
      std::vector<Candidate> next;
      for (size_t i = level_begin; i < level_end; ++i) {
        for (const Candidate& b : seeds_) {
          if (all.size() + next.size() >= kMaxCandidates) break;
          Compose(all[i], b, &next);
        }
      }
      level_begin = all.size();
      for (Candidate& c : next) all.push_back(std::move(c));
      level_end = all.size();
      if (level_begin == level_end) break;
    }
    // A final navigation pass over composed candidates.
    n = all.size();
    for (size_t i = seeds_.size(); i < n && all.size() < kMaxCandidates; ++i) {
      auto extended = NavigationExtended(all[i]);
      if (extended.has_value()) all.push_back(std::move(*extended));
    }
    if (stats_ != nullptr) stats_->candidates_generated = all.size();

    std::vector<Rewriting> results;
    std::set<std::string> seen_plans;
    for (const Candidate& c : all) {
      ULOAD_RETURN_NOT_OK(TryAdaptations(c, &results, &seen_plans));
      if (results.size() >= opts_.max_results) break;
    }
    if (results.empty()) {
      ULOAD_RETURN_NOT_OK(TryUnions(all, &results, &seen_plans));
    }
    // Rank by the summary-derived cost estimate, breaking ties by plan
    // size (the thesis's preference for minimal plans, §5.3).
    auto view_card = [&](const std::string& name) {
      auto it = cards_.find(name);
      return it == cards_.end() ? 1000.0 : it->second;
    };
    for (Rewriting& r : results) {
      r.estimated_cost = EstimatePlanCost(*r.plan, summary_, view_card);
    }
    std::stable_sort(results.begin(), results.end(),
                     [](const Rewriting& a, const Rewriting& b) {
                       if (a.estimated_cost != b.estimated_cost) {
                         return a.estimated_cost < b.estimated_cost;
                       }
                       return a.operator_count < b.operator_count;
                     });
    return results;
  }

 private:
  // --- Seeds ---------------------------------------------------------------

  // One seed per relevant view: some return-node annotation lies on a query
  // node's path or above it (ancestor views contribute identifiers for
  // structural joins and navigation anchors).
  void BuildSeeds() {
    std::set<SummaryNodeId> interesting;
    for (XamNodeId qn = 1; qn < query_->size(); ++qn) {
      for (SummaryNodeId s : query_ann_[qn]) {
        for (SummaryNodeId cur = s; cur > 0;
             cur = summary_.node(cur).parent) {
          interesting.insert(cur);
        }
      }
    }
    for (const Rewriter::View& v : views_) {
      if (std::none_of(v.return_ann.begin(), v.return_ann.end(),
                       [&](SummaryNodeId s) {
                         return interesting.count(s) != 0;
                       })) {
        continue;
      }
      if (v.index) {
        SeedIndexView(v);
      } else {
        seeds_.push_back(Candidate{v.plan, v.pattern, v.ann, {}, {v.name}});
      }
    }
  }

  // R-marked views are indexes: they can only be accessed given bindings
  // for the required attributes (Def. 2.2.6). Usable when the query pins
  // every required value with an equality formula — the seed becomes an
  // IndexScan with those constants (QEP11). Pinning edits a copy of the
  // view's pattern and keeps its annotations valid.
  void SeedIndexView(const Rewriter::View& v) {
    Candidate c{nullptr, v.pattern, v.ann, {}, {v.name}};
    std::vector<std::pair<std::string, AtomicValue>> bindings;
    for (XamNodeId id = 1; id < c.pattern.size(); ++id) {
      XamNode& n = c.pattern.node(id);
      if (n.id_required || n.tag_required) {
        return;  // only value keys are matched against queries
      }
      if (!n.val_required) continue;
      // Find a query node with a single-equality formula whose annotation
      // lies within this view node's annotation.
      bool pinned = false;
      for (XamNodeId qn = 1; qn < query_->size(); ++qn) {
        AtomicValue constant;
        if (!query_->node(qn).val_formula.IsSingleEquality(&constant) ||
            query_ann_[qn].empty() || !Covers((*v.ann)[id], query_ann_[qn])) {
          continue;
        }
        // Pin: the pattern's node now carries the equality; the plan binds
        // the index key. The view stored Val under this name (required
        // attrs are materialized like stored ones).
        n.val_required = false;
        n.val_formula = n.val_formula.And(ValueFormula::Equals(constant));
        bindings.emplace_back(n.name.substr(v.prefix.size()) + "_Val",
                              constant);
        pinned = true;
        break;
      }
      if (!pinned) return;  // key not fully bound: unusable
    }
    if (bindings.empty()) return;
    c.plan = LogicalPlan::PrefixNames(
        LogicalPlan::IndexScan(v.name, std::move(bindings)), v.prefix);
    seeds_.push_back(std::move(c));
  }

  // --- Compositions (§5.5) -------------------------------------------------

  // Re-prefixes a seed with a globally unique prefix so that the same view
  // can participate several times in one plan without column-name clashes
  // (names are load-bearing: they tie pattern nodes to plan columns).
  Candidate Freshen(const Candidate& seed) {
    std::string prefix = "u" + std::to_string(++fresh_counter_) + "_";
    Candidate c;
    c.pattern = PrefixXamNames(seed.pattern, prefix);
    c.ann = seed.ann;  // renaming keeps the annotations
    c.plan = LogicalPlan::PrefixNames(seed.plan, prefix);
    c.views = seed.views;
    for (const auto& [key, value] : seed.aliases) {
      c.aliases.emplace(prefix + key, prefix + value);
    }
    return c;
  }

  void Compose(const Candidate& a, const Candidate& seed_b,
               std::vector<Candidate>* out) {
    // Avoid trivially redundant self-products of the same view set.
    if (a.views.size() == 1 && seed_b.views.size() == 1 &&
        a.views[0] == seed_b.views[0]) {
      return;
    }
    const Candidate b = Freshen(seed_b);
    // Right-side anchor: the topmost stored-id node n2 of b.
    for (XamNodeId n2 = 1; n2 < b.pattern.size(); ++n2) {
      const XamNode& bn = b.pattern.node(n2);
      if (!bn.stores_id) continue;
      if (b.pattern.NestingDepth(n2) != 0) continue;
      for (XamNodeId n1 = 1; n1 < a.pattern.size(); ++n1) {
        const XamNode& an = a.pattern.node(n1);
        if (!an.stores_id) continue;
        if (a.pattern.NestingDepth(n1) != 0) continue;
        // (1) Structural join: both ids must decide ancestorship and share a
        // representation.
        if (IdKindAtLeast(an.id_kind, IdKind::kStructural) &&
            IdKindAtLeast(bn.id_kind, IdKind::kStructural) &&
            (an.id_kind == IdKind::kParental) ==
                (bn.id_kind == IdKind::kParental)) {
          auto composed = ComposeStructural(a.pattern, *a.ann, n1, b.pattern,
                                            *b.ann, n2, summary_);
          if (composed.has_value()) {
            Candidate c = Composed(std::move(*composed));
            c.plan = LogicalPlan::StructuralJoin(
                a.plan, b.plan, a.PlanColumn(PatternAttr(a.pattern, n1, "_ID")),
                Axis::kDescendant,
                b.PlanColumn(PatternAttr(b.pattern, n2, "_ID")),
                JoinVariant::kInner);
            MergeBookkeeping(a, b, &c);
            out->push_back(std::move(c));
          }
        }
        // (2) Node-identity join: equality on ids of any kind.
        {
          auto composed = ComposeMerge(a.pattern, *a.ann, n1, b.pattern,
                                       *b.ann, n2, summary_);
          if (composed.has_value()) {
            Candidate c = Composed(std::move(*composed));
            c.plan = LogicalPlan::ValueJoin(
                a.plan, b.plan, a.PlanColumn(PatternAttr(a.pattern, n1, "_ID")),
                Comparator::kEq,
                b.PlanColumn(PatternAttr(b.pattern, n2, "_ID")),
                JoinVariant::kInner);
            MergeBookkeeping(a, b, &c);
            // The merged node carries n1's name; attrs that only b stored
            // must alias to b's plan columns.
            auto alias = [&](bool a_has, bool b_has, const char* suffix) {
              if (!a_has && b_has) {
                c.aliases[PatternAttr(c.pattern, n1, suffix)] =
                    b.PlanColumn(PatternAttr(b.pattern, n2, suffix));
              }
            };
            alias(an.stores_id, bn.stores_id, "_ID");
            alias(an.stores_tag, bn.stores_tag, "_Tag");
            alias(an.stores_val, bn.stores_val, "_Val");
            alias(an.stores_cont, bn.stores_cont, "_Cont");
            out->push_back(std::move(c));
          }
        }
        // (3) Ancestor derivation (§5.2): b's ids are navigational; derive
        // the ancestor at n1's (unique) depth and join by equality — n1's
        // ids only need equality.
        if (bn.id_kind == IdKind::kParental) {
          std::span<const SummaryNodeId> n1_ann = (*a.ann)[n1];
          uint32_t depth = 0;
          bool uniform = !n1_ann.empty();
          for (SummaryNodeId s : n1_ann) {
            if (depth == 0) {
              depth = summary_.node(s).depth;
            } else if (summary_.node(s).depth != depth) {
              uniform = false;
              break;
            }
          }
          // n1's ids must be Dewey too for the equality to be meaningful.
          if (uniform && depth > 0 && an.id_kind == IdKind::kParental) {
            auto composed = ComposeStructural(a.pattern, *a.ann, n1,
                                              b.pattern, *b.ann, n2, summary_);
            if (composed.has_value()) {
              std::string derived =
                  b.PlanColumn(PatternAttr(b.pattern, n2, "_ID")) + "_anc";
              Candidate c = Composed(std::move(*composed));
              c.plan = LogicalPlan::ValueJoin(
                  a.plan,
                  LogicalPlan::DeriveParent(
                      b.plan, b.PlanColumn(PatternAttr(b.pattern, n2, "_ID")),
                      derived, depth),
                  a.PlanColumn(PatternAttr(a.pattern, n1, "_ID")),
                  Comparator::kEq, derived, JoinVariant::kInner);
              MergeBookkeeping(a, b, &c);
              out->push_back(std::move(c));
            }
          }
        }
      }
    }
  }

  static Candidate Composed(ComposedPattern composed) {
    Candidate c;
    c.pattern = std::move(composed.pattern);
    c.ann = std::make_shared<const AnnotationSets>(
        std::move(composed.annotations));
    return c;
  }

  static void MergeBookkeeping(const Candidate& a, const Candidate& b,
                               Candidate* c) {
    c->aliases = a.aliases;
    c->aliases.insert(b.aliases.begin(), b.aliases.end());
    c->views = a.views;
    c->views.insert(c->views.end(), b.views.begin(), b.views.end());
  }

  // --- Adaptations (§5.3-5.4) ---------------------------------------------

  Status TryAdaptations(const Candidate& base, std::vector<Rewriting>* results,
                        std::set<std::string>* seen_plans) {
    // Optional-edge strictification variants: consider the optional edges of
    // the candidate; for each subset (bounded), make them strict and add a
    // not-null selection.
    std::vector<XamNodeId> optional_nodes;
    for (XamNodeId id = 1; id < base.pattern.size(); ++id) {
      if (base.pattern.IncomingEdge(id).optional()) {
        optional_nodes.push_back(id);
      }
    }
    size_t subsets = optional_nodes.size() <= 3
                         ? (1u << optional_nodes.size())
                         : 2;  // all-lax and all-strict only
    for (size_t mask = 0; mask < subsets; ++mask) {
      Candidate c = base;
      bool valid = true;
      bool strictified = false;
      for (size_t i = 0; i < optional_nodes.size(); ++i) {
        bool strict = subsets == 2 ? (mask == 1)
                                   : ((mask >> i) & 1) != 0;
        if (!strict) continue;
        XamNodeId node = optional_nodes[i];
        // Strictify the pattern edge; the plan filters out null tuples.
        XamNode& parent = c.pattern.node(c.pattern.node(node).parent);
        for (XamEdge& e : parent.edges) {
          if (e.child != node) continue;
          e.variant = e.variant == JoinVariant::kNestOuter
                          ? JoinVariant::kNestJoin
                          : JoinVariant::kInner;
        }
        // Need a stored attribute to test for null.
        const XamNode& n = c.pattern.node(node);
        const char* suffix = n.stores_id     ? "_ID"
                             : n.stores_val  ? "_Val"
                             : n.stores_cont ? "_Cont"
                             : n.stores_tag  ? "_Tag"
                                             : nullptr;
        if (suffix == nullptr) {
          valid = false;
          break;
        }
        c.plan = LogicalPlan::Select(
            c.plan, Predicate::NotNull(
                        c.PlanColumn(PatternAttr(c.pattern, node, suffix))));
        strictified = true;
      }
      if (!valid) continue;
      if (strictified) Reannotate(&c);
      ULOAD_RETURN_NOT_OK(TryAssignments(c, results, seen_plans));
      if (results->size() >= opts_.max_results) return Status::Ok();
    }
    return Status::Ok();
  }

  // Order-preserving injective assignments of query return nodes to pattern
  // return nodes.
  Status TryAssignments(const Candidate& base, std::vector<Rewriting>* results,
                        std::set<std::string>* seen_plans) {
    std::vector<XamNodeId> cand_returns = base.pattern.ReturnNodes();
    if (cand_returns.size() < query_returns_.size()) return Status::Ok();
    std::vector<XamNodeId> assign(query_returns_.size(), kXamRoot);
    size_t emitted = 0;
    std::function<Status(size_t, size_t)> rec =
        [&](size_t qi, size_t from) -> Status {
      if (results->size() >= opts_.max_results || emitted >= 4) {
        return Status::Ok();
      }
      if (qi == query_returns_.size()) {
        ++emitted;
        return FinishAssignment(base, assign, results, seen_plans);
      }
      for (size_t cj = from; cj < cand_returns.size(); ++cj) {
        if (!CanServe(base, cand_returns[cj], query_returns_[qi])) continue;
        assign[qi] = cand_returns[cj];
        ULOAD_RETURN_NOT_OK(rec(qi + 1, cj + 1));
      }
      return Status::Ok();
    };
    return rec(0, 0);
  }

  // Whether candidate return node `cn` can play query return node `qn`: it
  // stores every attribute `qn` stores, ids at least as strong, and their
  // annotations meet.
  bool CanServe(const Candidate& c, XamNodeId cn, XamNodeId qn) const {
    const XamNode& q = query_->node(qn);
    const XamNode& n = c.pattern.node(cn);
    return StoresAll(n, q) &&
           (!q.stores_id || IdKindAtLeast(n.id_kind, q.id_kind)) &&
           Intersects(query_ann_[qn], (*c.ann)[cn]);
  }

  // `assign[i]` is the candidate node playing query_returns_[i].
  Status FinishAssignment(const Candidate& base,
                          const std::vector<XamNodeId>& assign,
                          std::vector<Rewriting>* results,
                          std::set<std::string>* seen_plans) {
    if (stats_ != nullptr) stats_->adaptations_tried++;
    bool emitted = false;
    ULOAD_RETURN_NOT_OK(FinishVariant(base, assign, /*compensate_tags=*/false,
                                      results, seen_plans, &emitted));
    if (emitted) return Status::Ok();
    // The plain candidate is not equivalent to the query — typically because
    // a wildcard store (e.g. StructuralIdModel's sid_main) matches nodes the
    // query's label restrictions exclude. Retry with compensating tag
    // selections pushed onto stored tag columns.
    return FinishVariant(base, assign, /*compensate_tags=*/true, results,
                         seen_plans, &emitted);
  }

  // Compensating tag selections (§5.3 adaptations, label analog of the value
  // compensation below): every query label restriction the candidate pattern
  // does not already enforce is bound onto a wildcard candidate node that
  // stores tags — the pattern node gains the label, the plan gains
  // Select[col_Tag = label]. Returns false when some restriction cannot be
  // enforced anywhere (the candidate stays non-equivalent and is dropped).
  bool CompensateTags(const std::vector<XamNodeId>& assign,
                      Candidate* c) const {
    // The annotations before any label is bound; re-annotated at the end.
    std::shared_ptr<const AnnotationSets> ann = c->ann;
    const AnnotationSets& cand_ann = *ann;
    std::vector<bool> used(c->pattern.size(), false);
    bool relabeled = false;
    auto enforce = [&](XamNodeId qn, XamNodeId cn) {
      used[cn] = true;
      relabeled = true;
      c->pattern.node(cn).tag_value = query_->node(qn).tag_value;
      c->plan = LogicalPlan::Select(
          c->plan,
          Predicate::CompareConst(
              c->PlanColumn(PatternAttr(c->pattern, cn, "_Tag")),
              Comparator::kEq,
              AtomicValue::String(query_->node(qn).tag_value)));
    };
    // Assigned return pairs first: the query return node's restriction lands
    // on the candidate node chosen to play that role.
    std::vector<bool> handled(query_->size(), false);
    for (size_t qi = 0; qi < assign.size(); ++qi) {
      XamNodeId qn = query_returns_[qi];
      XamNodeId cn = assign[qi];
      const XamNode& qnode = query_->node(qn);
      if (qnode.tag_value.empty() || qnode.is_attribute) continue;
      const XamNode& cnode = c->pattern.node(cn);
      if (cnode.tag_value == qnode.tag_value) {
        handled[qn] = true;
        continue;
      }
      if (!cnode.tag_value.empty() || !cnode.stores_tag) continue;
      if (!Covers(cand_ann[cn], query_ann_[qn])) continue;
      enforce(qn, cn);
      handled[qn] = true;
    }
    for (XamNodeId qn = 1; qn < query_->size(); ++qn) {
      const std::string& tag = query_->node(qn).tag_value;
      if (tag.empty() || query_->node(qn).is_attribute || handled[qn]) {
        continue;
      }
      // Already enforced: some candidate node carries the same label on an
      // annotation that reaches the query node's paths.
      bool enforced = false;
      for (XamNodeId cn = 1; cn < c->pattern.size() && !enforced; ++cn) {
        enforced = c->pattern.node(cn).tag_value == tag &&
                   Intersects(cand_ann[cn], query_ann_[qn]);
      }
      if (enforced) continue;
      XamNodeId target = kXamRoot;  // sentinel: no target yet
      for (XamNodeId cn = 1; cn < c->pattern.size(); ++cn) {
        const XamNode& n = c->pattern.node(cn);
        if (used[cn] || !n.tag_value.empty() || !n.stores_tag ||
            n.is_attribute) {
          continue;
        }
        if (c->pattern.NestingDepth(cn) != 0) continue;
        if (!Covers(cand_ann[cn], query_ann_[qn])) continue;
        target = cn;
        break;
      }
      if (target == kXamRoot) return false;
      enforce(qn, target);
    }
    if (relabeled) Reannotate(c);
    return true;
  }

  Status FinishVariant(const Candidate& base,
                       const std::vector<XamNodeId>& assign,
                       bool compensate_tags, std::vector<Rewriting>* results,
                       std::set<std::string>* seen_plans, bool* emitted) {
    Candidate c = base;
    if (compensate_tags && !CompensateTags(assign, &c)) return Status::Ok();

    // 1. Compensating value selections: query formulas absent from the
    //    candidate are enforced on stored values of the matching node when
    //    possible. Match query formula nodes against candidate nodes by
    //    annotation inclusion. Neither these selections nor the trim below
    //    change the pattern's annotations.
    const AnnotationSets& cand_ann = *c.ann;
    for (XamNodeId qn = 1; qn < query_->size(); ++qn) {
      const ValueFormula& f = query_->node(qn).val_formula;
      if (f.IsTrue()) continue;
      // Find a candidate node storing Val whose annotation covers the query
      // node's annotation.
      for (XamNodeId cn = 1; cn < c.pattern.size(); ++cn) {
        if (!c.pattern.node(cn).stores_val) continue;
        if (c.pattern.NestingDepth(cn) != 0) continue;
        if (!c.pattern.node(cn).val_formula.IsTrue()) continue;
        if (!Covers(cand_ann[cn], query_ann_[qn])) continue;
        c.pattern.ValPredicate(cn, c.pattern.node(cn).val_formula.And(f));
        c.plan = LogicalPlan::Select(
            c.plan,
            f.ToPredicate(c.PlanColumn(PatternAttr(c.pattern, cn, "_Val"))));
        break;
      }
    }

    // 2. Trim to the query's attributes.
    std::vector<std::pair<std::string, std::string>> attr_map;
    if (!Trim(assign, &c, &attr_map)) return Status::Ok();

    // 3. Verify S-equivalence with the query pattern.
    ULOAD_ASSIGN_OR_RETURN(bool equiv, IsEquivalentToQuery(c));
    if (!equiv) return Status::Ok();

    std::string key = c.plan->ToString();
    if (!seen_plans->insert(key).second) return Status::Ok();
    Rewriting r;
    r.plan = c.plan;
    r.pattern = c.pattern;
    r.attr_map = std::move(attr_map);
    r.views_used = c.views;
    r.operator_count = c.plan->OperatorCount();
    results->push_back(std::move(r));
    *emitted = true;
    return Status::Ok();
  }

  // Trims `c` to the query's needs: `assign[i]` stores exactly what
  // query_returns_[i] stores and every other node stores nothing. The plan
  // is projected onto the trimmed pattern's columns, eliminating duplicates
  // (pattern semantics are sets of return tuples, the Π of Def. 2.2.3), and
  // `attr_map` pairs the query's attributes with those columns. False when
  // the two schemas do not line up.
  bool Trim(const std::vector<XamNodeId>& assign, Candidate* c,
            std::vector<std::pair<std::string, std::string>>* attr_map) const {
    std::vector<const XamNode*> role(c->pattern.size(), nullptr);
    for (size_t i = 0; i < assign.size(); ++i) {
      role[assign[i]] = &query_->node(query_returns_[i]);
    }
    for (XamNodeId id = 1; id < c->pattern.size(); ++id) {
      XamNode& node = c->pattern.node(id);
      node.stores_id = role[id] != nullptr && role[id]->stores_id;
      node.stores_tag = role[id] != nullptr && role[id]->stores_tag;
      node.stores_val = role[id] != nullptr && role[id]->stores_val;
      node.stores_cont = role[id] != nullptr && role[id]->stores_cont;
    }
    std::vector<StoredAttr> stored;
    CollectStored(c->pattern, kXamRoot, &stored);
    std::vector<StoredAttr> qstored;
    CollectStored(*query_, kXamRoot, &qstored);
    if (qstored.size() != stored.size()) return false;
    std::vector<std::string> proj_cols;
    for (size_t i = 0; i < stored.size(); ++i) {
      proj_cols.push_back(c->PlanColumn(
          PatternAttr(c->pattern, stored[i].node, stored[i].suffix)));
      attr_map->emplace_back(
          PatternAttr(*query_, qstored[i].node, qstored[i].suffix),
          proj_cols.back());
    }
    if (!proj_cols.empty()) {
      c->plan = LogicalPlan::Project(c->plan, proj_cols, /*dedup=*/true);
    }
    return true;
  }

  // Decides c.pattern ≡_S query. A candidate whose return annotations
  // escape the query's cannot be contained in it, so it is rejected before
  // any canonical model is built; proved verdicts are reused for later
  // candidates that differ only in node names.
  Result<bool> IsEquivalentToQuery(const Candidate& c) {
    if (AnnotationsRefuteContainment(c.pattern, *c.ann, *query_, query_ann_)) {
      if (stats_ != nullptr) stats_->equivalence_pruned++;
      return false;
    }
    Xam by_id = c.pattern;
    std::vector<std::pair<XamNodeId, ValueFormula>> formulas;
    for (XamNodeId id = 1; id < by_id.size(); ++id) {
      by_id.node(id).name = std::to_string(id);
      const ValueFormula& f = by_id.node(id).val_formula;
      if (!f.IsTrue()) formulas.emplace_back(id, f);
    }
    std::string key = PrintXam(by_id);
    auto it = proved_.find(key);
    if (it != proved_.end() && SameFormulas(it->second.formulas, formulas)) {
      if (stats_ != nullptr) stats_->equivalence_memo_hits++;
      return it->second.equivalent;
    }
    if (stats_ != nullptr) stats_->equivalence_checks++;
    ContainmentStats st;
    ULOAD_ASSIGN_OR_RETURN(
        bool equiv, AreEquivalent(c.pattern, *query_, summary_, {}, &st));
    NoteTruncation(st);
    proved_.emplace(std::move(key), Proof{std::move(formulas), equiv});
    return equiv;
  }

  // The printed key renders numeric constants with six decimals, so a key
  // hit also compares the formulas exactly.
  static bool SameFormulas(
      const std::vector<std::pair<XamNodeId, ValueFormula>>& a,
      const std::vector<std::pair<XamNodeId, ValueFormula>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].first != b[i].first || !a[i].second.EquivalentTo(b[i].second)) {
        return false;
      }
    }
    return true;
  }

  void NoteTruncation(const ContainmentStats& st) {
    if (st.truncated && stats_ != nullptr) stats_->containment_truncations++;
  }

  void Reannotate(Candidate* c) const {
    c->ann = std::make_shared<const AnnotationSets>(
        PathAnnotations(c->pattern, summary_));
  }

  // --- Navigation (§5.2/§5.4) ----------------------------------------------

  // Greedily covers query return nodes that no candidate return node can
  // serve, by appending Navigate steps from a stored identifier whose
  // annotation dominates the missing node's annotation. Returns nullopt if
  // some missing node cannot be covered or nothing was missing.
  std::optional<Candidate> NavigationExtended(const Candidate& base) {
    std::vector<XamNodeId> cand_returns = base.pattern.ReturnNodes();
    const AnnotationSets& cand_ann = *base.ann;
    Candidate c = base;
    bool extended = false;
    for (XamNodeId qr : query_returns_) {
      if (std::any_of(cand_returns.begin(), cand_returns.end(),
                      [&](XamNodeId cr) { return CanServe(base, cr, qr); })) {
        continue;
      }
      // Find an anchor: a top-level id-storing node whose annotation
      // dominates (is an ancestor of) every path of the missing node. Only
      // the base's nodes are annotated; nodes navigated to in earlier
      // iterations are not anchors.
      XamNodeId anchor = -1;
      for (XamNodeId cn = 1; cn < base.pattern.size(); ++cn) {
        const XamNode& n = c.pattern.node(cn);
        if (!n.stores_id || c.pattern.NestingDepth(cn) != 0) continue;
        bool dominates = !query_ann_[qr].empty();
        for (SummaryNodeId target : query_ann_[qr]) {
          bool any = false;
          for (SummaryNodeId s : cand_ann[cn]) {
            if (summary_.IsAncestor(s, target)) {
              any = true;
              break;
            }
          }
          if (!any) {
            dominates = false;
            break;
          }
        }
        if (dominates) {
          anchor = cn;
          break;
        }
      }
      if (anchor < 0) return std::nullopt;
      const XamNode& q = query_->node(qr);
      std::string name = "nav" + std::to_string(++nav_counter_);
      JoinVariant variant = query_->IncomingEdge(qr).variant;
      // Pattern side: new node under the anchor via a descendant edge.
      XamNodeId added = c.pattern.AddNode(anchor, Axis::kDescendant,
                                          q.tag_value, variant, name);
      // The query node's value formula is not copied: Navigate applies no
      // selection. The node emits its value instead, so FinishVariant's
      // compensating selection can enforce the formula on that column and
      // the trim projects it away again.
      bool emit_val = q.stores_val || !q.val_formula.IsTrue();
      XamNode& an = c.pattern.node(added);
      an.is_attribute = q.is_attribute;
      an.stores_id = q.stores_id;
      an.id_kind = q.id_kind;
      an.stores_tag = q.stores_tag;
      an.stores_val = emit_val;
      an.stores_cont = q.stores_cont;
      // Plan side: Navigate with matching emission and variant.
      NavEmit emit;
      emit.id = q.stores_id;
      emit.tag = q.stores_tag;
      emit.val = emit_val;
      emit.cont = q.stores_cont;
      emit.id_kind = q.id_kind;
      emit.prefix = name;
      c.plan = LogicalPlan::Navigate(
          c.plan, c.PlanColumn(PatternAttr(c.pattern, anchor, "_ID")),
          {NavStep{Axis::kDescendant, q.tag_value}}, emit, variant);
      extended = true;
    }
    if (!extended) return std::nullopt;
    Reannotate(&c);
    return c;
  }

  // --- Unions (§5.3) -------------------------------------------------------

  Status TryUnions(const std::vector<Candidate>& all,
                   std::vector<Rewriting>* results,
                   std::set<std::string>* seen_plans) {
    // Collect candidates strictly contained in the query whose trimmed
    // schemas line up with the query's needs (single-assignment trim).
    struct Piece {
      Candidate cand;  // trimmed
      std::vector<std::pair<std::string, std::string>> attr_map;
    };
    std::vector<Piece> pieces;
    for (const Candidate& base : all) {
      std::vector<XamNodeId> cand_returns = base.pattern.ReturnNodes();
      if (cand_returns.size() != query_returns_.size()) continue;
      bool ok = true;
      for (size_t i = 0; i < query_returns_.size() && ok; ++i) {
        ok = StoresAll(base.pattern.node(cand_returns[i]),
                       query_->node(query_returns_[i]));
      }
      if (!ok) continue;
      Piece piece{base, {}};
      if (!Trim(cand_returns, &piece.cand, &piece.attr_map)) continue;
      ContainmentStats st;
      ULOAD_ASSIGN_OR_RETURN(bool contained,
                             IsContained(piece.cand.pattern, *query_, summary_,
                                         {}, &st));
      NoteTruncation(st);
      if (!contained) continue;
      pieces.push_back(std::move(piece));
      if (pieces.size() > 12) break;  // bounded
    }
    for (size_t i = 0; i < pieces.size(); ++i) {
      for (size_t j = i + 1; j < pieces.size(); ++j) {
        if (stats_ != nullptr) stats_->equivalence_checks++;
        ContainmentStats st;
        ULOAD_ASSIGN_OR_RETURN(
            bool covered,
            IsContainedInUnion(*query_,
                               {&pieces[i].cand.pattern, &pieces[j].cand.pattern},
                               summary_, {}, &st));
        NoteTruncation(st);
        if (!covered) continue;
        PlanPtr plan =
            LogicalPlan::Union(pieces[i].cand.plan, pieces[j].cand.plan);
        std::string key = plan->ToString();
        if (!seen_plans->insert(key).second) continue;
        Rewriting r;
        r.plan = plan;
        r.pattern = *query_;  // the union is equivalent to the query pattern
        r.attr_map = pieces[i].attr_map;
        r.views_used = pieces[i].cand.views;
        r.views_used.insert(r.views_used.end(), pieces[j].cand.views.begin(),
                            pieces[j].cand.views.end());
        r.operator_count = plan->OperatorCount();
        results->push_back(std::move(r));
        if (results->size() >= opts_.max_results) return Status::Ok();
      }
    }
    return Status::Ok();
  }

  const PathSummary& summary_;
  const std::vector<Rewriter::View>& views_;
  const std::unordered_map<std::string, double>& cards_;
  const RewriteOptions& opts_;
  RewriteStats* stats_;

  const Xam* query_ = nullptr;
  std::vector<XamNodeId> query_returns_;
  AnnotationSets query_ann_;
  std::vector<Candidate> seeds_;
  // Equivalence verdicts of this search, keyed by the candidate pattern
  // printed with node names replaced by ids (containment never reads
  // names), with the pattern's non-trivial formulas by node id. Lives as
  // long as one Rewrite call, so nothing invalidates it.
  struct Proof {
    std::vector<std::pair<XamNodeId, ValueFormula>> formulas;
    bool equivalent;
  };
  std::unordered_map<std::string, Proof> proved_;
  int nav_counter_ = 0;
  int fresh_counter_ = 0;
};

}  // namespace

Rewriter::Rewriter(const PathSummary* summary, std::vector<NamedXam> views)
    : summary_(summary) {
  for (size_t i = 0; i < views.size(); ++i) {
    const NamedXam& v = views[i];
    cards_.emplace(v.name, EstimateCardinality(v.xam, *summary_));
    View view;
    view.prefix = "v" + std::to_string(i) + "_";
    view.pattern = PrefixXamNames(v.xam, view.prefix);
    if (!IsSatisfiable(view.pattern, *summary_)) continue;
    view.name = v.name;
    view.ann = std::make_shared<const AnnotationSets>(
        PathAnnotations(view.pattern, *summary_));
    for (XamNodeId id : view.pattern.ReturnNodes()) {
      view.return_ann.insert(view.return_ann.end(), (*view.ann)[id].begin(),
                             (*view.ann)[id].end());
    }
    view.index = v.xam.HasRequired();
    if (!view.index) {
      view.plan = LogicalPlan::PrefixNames(LogicalPlan::Scan(view.name),
                                           view.prefix);
    }
    views_.push_back(std::move(view));
  }
}

Result<std::vector<Rewriting>> Rewriter::Rewrite(const Xam& query,
                                                 const RewriteOptions& opts,
                                                 RewriteStats* stats) const {
  Search search(*summary_, views_, cards_, opts, stats);
  return search.Run(query);
}

Result<Rewriting> Rewriter::RewriteBest(const Xam& query,
                                        const RewriteOptions& opts,
                                        RewriteStats* stats) const {
  ULOAD_ASSIGN_OR_RETURN(std::vector<Rewriting> all,
                         Rewrite(query, opts, stats));
  if (all.empty()) {
    return Status::NotFound("no equivalent rewriting found");
  }
  return all[0];
}

}  // namespace uload
