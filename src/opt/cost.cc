#include "opt/cost.h"

#include <algorithm>
#include <cmath>

#include "containment/embedding.h"

namespace uload {
namespace {

// Per-tuple operator weights. The rewriter ranks rewritings only by their
// relative cost, so these need to order access paths sensibly, not to
// predict time.
constexpr double kScanWeight = 1.0;      // per scanned tuple
constexpr double kJoinWeight = 2.0;      // per join input, product output
constexpr double kNavigateWeight = 8.0;  // per *visited* document node
constexpr double kSelectWeight = 0.5;    // per selected input tuple
// Default selectivity of any value predicate or selection.
constexpr double kPredicateSelectivity = 0.1;

// Navigation traversal shape. A child-axis step examines each frontier
// node's children (kNavigateChildFanout per node); a descendant-axis step
// walks whole subtrees, estimated as kNavigateDescendantFactor visited nodes
// per matching target (subtrees of distinct frontier nodes are disjoint, so
// the document's total node count — known exactly from the summary — bounds
// the sum).
constexpr double kNavigateChildFanout = 8.0;
constexpr double kNavigateDescendantFactor = 16.0;

// Batch-at-a-time iteration (exec/physical.h): virtual dispatch, runtime
// accounting, and clock reads are paid once per NextBatch() call, while a
// small residual (branching, cursor advance) stays per tuple.
constexpr double kPerTupleOverhead = 0.05;  // per tuple per operator
constexpr double kPerBatchOverhead = 2.0;   // per NextBatch() call
constexpr double kBatchSize = 1024.0;       // tuples per batch

// Iteration overhead one operator pays to push `card` tuples downstream:
// the per-tuple residual plus ceil(card / kBatchSize) NextBatch() calls (at
// least one, even for an empty stream).
double IterationOverhead(double card) {
  double tuples = std::max(card, 0.0);
  double batches = std::max(1.0, std::ceil(tuples / kBatchSize));
  return tuples * kPerTupleOverhead + batches * kPerBatchOverhead;
}

// Cardinality of the subtree rooted at `node`, per instance of the parent's
// path `at`: how many subtree matches hang below one parent node.
double SubtreePerParent(const Xam& p, XamNodeId node, SummaryNodeId at,
                        const PathSummary& s,
                        const AnnotationSets& ann) {
  const XamNode& n = p.node(node);
  double total = 0;
  for (SummaryNodeId target : ann[node]) {
    bool related = p.IncomingEdge(node).axis == Axis::kChild
                       ? s.IsParent(at, target)
                       : s.IsAncestor(at, target);
    if (at == s.document_node()) related = true;
    if (!related) continue;
    double per_parent =
        s.node(at).cardinality > 0
            ? static_cast<double>(s.node(target).cardinality) /
                  static_cast<double>(std::max<int64_t>(
                      1, s.node(at).cardinality))
            : static_cast<double>(s.node(target).cardinality);
    // Children multiply (joins); semijoin/optional children only filter or
    // extend, approximated by a factor of min(1, child cardinality).
    double self = per_parent;
    for (const XamEdge& e : n.edges) {
      double child = SubtreePerParent(p, e.child, target, s, ann);
      if (e.semi() || e.optional()) {
        self *= std::min(1.0, std::max(child, 0.0) + (e.optional() ? 1.0 : 0.0));
      } else if (e.nested()) {
        // Nesting groups matches: one tuple per parent (if any child).
        self *= std::min(1.0, std::max(child, 1e-9));
      } else {
        self *= std::max(child, 0.0);
      }
    }
    if (!n.val_formula.IsTrue()) self *= kPredicateSelectivity;
    total += self;
  }
  return total;
}

}  // namespace

double EstimateCardinality(const Xam& pattern, const PathSummary& summary) {
  AnnotationSets ann = PathAnnotations(pattern, summary);
  double total = 1;
  for (const XamEdge& e : pattern.node(kXamRoot).edges) {
    double branch =
        SubtreePerParent(pattern, e.child, summary.document_node(), summary,
                         ann);
    if (e.nested()) branch = std::min(branch, 1.0);
    total *= std::max(branch, 0.0);
  }
  return total;
}

size_t ChooseWorkerCount(int64_t rows, size_t budget) {
  if (budget < 2 || rows < 2) return 1;
  size_t workers = std::min(budget, static_cast<size_t>(64));
  return std::min(workers, static_cast<size_t>(rows));
}

size_t ExchangeQueueCapacity(size_t workers, int64_t budget_bytes,
                             int64_t batch_bytes) {
  if (workers == 0) workers = 1;
  // Ungoverned default: 4 in-flight batches per worker queue (the merge
  // consumes unevenly, so each worker gets some slack).
  const size_t cap = 4;
  if (budget_bytes <= 0) return cap;
  if (batch_bytes <= 0) batch_bytes = 1;
  // Let at most ~half the budget sit in queue slots across all workers.
  int64_t total_slots = (budget_bytes / 2) / batch_bytes;
  int64_t share = total_slots / static_cast<int64_t>(workers);
  if (share < 1) share = 1;
  return std::min(cap, static_cast<size_t>(share));
}

double EstimatePlanCost(
    const LogicalPlan& plan, const PathSummary& summary,
    const std::function<double(const std::string&)>& view_card) {
  // Returns (cost, cardinality) bottom-up.
  struct Est {
    double cost = 0;
    double card = 0;
  };
  // Exact document-wide node counts from the summary, used to price
  // navigation by nodes *visited* rather than tuples fed in.
  double total_nodes = 0;
  for (SummaryNodeId id = 0; id < summary.size(); ++id) {
    total_nodes += static_cast<double>(summary.node(id).cardinality);
  }
  auto label_count = [&](const std::string& label) -> double {
    if (label.empty()) return total_nodes;  // '*' step: any element
    double c = 0;
    for (SummaryNodeId id : summary.NodesWithLabel(label)) {
      c += static_cast<double>(summary.node(id).cardinality);
    }
    return c;
  };
  std::function<Est(const LogicalPlan&)> rec =
      [&](const LogicalPlan& p) -> Est {
    // Every operator additionally pays the batch-iteration overhead of
    // handing its output downstream.
    Est est = [&]() -> Est {
    switch (p.op()) {
      case PlanOp::kScan:
      case PlanOp::kIndexScan: {
        double card = view_card(p.relation());
        double factor = p.op() == PlanOp::kIndexScan ? 0.05 : 1.0;
        return Est{card * kScanWeight * factor, card * factor};
      }
      case PlanOp::kSelect: {
        Est in = rec(*p.left());
        return Est{in.cost + in.card * kSelectWeight,
                   in.card * kPredicateSelectivity};
      }
      case PlanOp::kProject:
      case PlanOp::kPrefixNames: {
        Est in = rec(*p.left());
        return Est{in.cost + in.card * 0.1, in.card};
      }
      case PlanOp::kProduct: {
        Est l = rec(*p.left());
        Est r = rec(*p.right());
        double card = l.card * r.card;
        return Est{l.cost + r.cost + card * kJoinWeight, card};
      }
      case PlanOp::kValueJoin:
      case PlanOp::kStructuralJoin: {
        Est l = rec(*p.left());
        Est r = rec(*p.right());
        // Structural joins tend to be selective: assume each left tuple
        // meets a constant number of right tuples bounded by fanout.
        double card = std::min(l.card * r.card,
                               std::max(l.card, r.card) * 4.0);
        if (p.variant() == JoinVariant::kSemi) card = l.card;
        return Est{l.cost + r.cost + (l.card + r.card) * kJoinWeight, card};
      }
      case PlanOp::kUnion: {
        Est l = rec(*p.left());
        Est r = rec(*p.right());
        return Est{l.cost + r.cost, l.card + r.card};
      }
      case PlanOp::kDeriveParent: {
        Est in = rec(*p.left());
        return Est{in.cost + in.card * 0.2, in.card};
      }
      case PlanOp::kNavigate: {
        Est in = rec(*p.left());
        double card = in.card * 4.0;
        if (p.variant() == JoinVariant::kSemi ||
            p.variant() == JoinVariant::kNestJoin ||
            p.variant() == JoinVariant::kNestOuter) {
          card = in.card;
        }
        // Charge per node the traversal *visits*, not per input tuple:
        // pricing by input alone made "scan the 1-tuple container, then
        // walk its whole subtree" look nearly free, so the ranker preferred
        // whole-document navigation over a direct scan of the target tag's
        // view. A child step examines each frontier node's children; a
        // descendant step walks entire subtrees — disjoint across frontier
        // nodes, so the document node count caps the sum (tight exactly for
        // the container-scan shape that used to win by mispricing).
        double frontier = std::max(in.card, 1.0);
        double visited_total = 0;
        for (const NavStep& step : p.nav_steps()) {
          double matches = label_count(step.label);
          double visited;
          if (step.axis == Axis::kDescendant) {
            visited = std::min(
                total_nodes,
                std::max(frontier, matches) * kNavigateDescendantFactor);
          } else {
            visited = frontier * kNavigateChildFanout;
          }
          visited_total += visited;
          frontier = std::max(1.0, matches > 0 ? std::min(visited, matches)
                                               : visited);
        }
        return Est{in.cost + visited_total * kNavigateWeight, card};
      }
      case PlanOp::kRetype: {
        // Metadata-only re-tag: the stream passes through untouched.
        Est in = rec(*p.left());
        return Est{in.cost, in.card};
      }
      case PlanOp::kSortOp: {
        // Sort_φ enforcer; the physical compiler elides it over streams
        // that already carry the order, so charge the n log n only as a
        // pessimistic bound.
        Est in = rec(*p.left());
        double n = std::max(in.card, 1.0);
        return Est{in.cost + n * std::log2(n + 1.0), in.card};
      }
      case PlanOp::kUnit:
        return Est{0, 1};
    }
    return Est{};
    }();
    est.cost += IterationOverhead(est.card);
    return est;
  };
  return rec(plan).cost;
}

}  // namespace uload
