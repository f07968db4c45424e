// Embeddings of XAM patterns into path summaries (thesis §4.1, §4.3).
//
// An embedding maps every pattern node to a summary node such that labels
// match (wildcards match anything of the right kind), ⊤ maps to the summary
// document node, and / and // edges map to parent / ancestor pairs.
#ifndef ULOAD_CONTAINMENT_EMBEDDING_H_
#define ULOAD_CONTAINMENT_EMBEDDING_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "summary/path_summary.h"
#include "xam/xam.h"

namespace uload {

// One summary node per XAM node id; index 0 (⊤) is always the summary
// document node.
using SummaryEmbedding = std::vector<SummaryNodeId>;

// Label/kind compatibility: `pn` may map to `sn` (a wildcard matches any
// element, an attribute wildcard any attribute).
bool NodeMatches(const XamNode& pn, const SummaryNode& sn);

// The summary nodes pattern node `node` may map to when its parent maps to
// `at` and it is entered by `axis`: children (/) or descendants (//) of
// `at` that match the node, in pre-order.
std::vector<SummaryNodeId> SummaryCandidates(const Xam& p, XamNodeId node,
                                             Axis axis, SummaryNodeId at,
                                             const PathSummary& summary);

// Streams the embeddings of `p` into the summary to `fn`, which returns
// false to stop. Nested edges count as plain structural edges; a subtree
// below an optional edge that has no placement maps to ⊥
// (kNoSummaryNode). This is the only enumeration of embeddings: canonical
// models and IsSatisfiable both walk it. Returns false iff `fn` stopped the
// walk.
bool ForEachEmbedding(
    const Xam& p, const PathSummary& summary,
    const std::function<bool(const SummaryEmbedding&)>& fn);

// Path annotations of a pattern: one summary-node set per XAM node id,
// stored flat (two allocations whatever the pattern's size), since the
// rewriter keeps one per candidate.
class AnnotationSets {
 public:
  size_t size() const { return starts_.empty() ? 0 : starts_.size() - 1; }
  // The set of XAM node `id`, in PathAnnotations' order.
  std::span<const SummaryNodeId> operator[](size_t id) const {
    return {nodes_.data() + starts_[id], starts_[id + 1] - starts_[id]};
  }
  bool operator==(const AnnotationSets&) const = default;

 private:
  friend AnnotationSets PathAnnotations(const Xam& p,
                                        const PathSummary& summary);
  // Set `id` is nodes_[starts_[id], starts_[id + 1]).
  std::vector<uint32_t> starts_;
  std::vector<SummaryNodeId> nodes_;
};

// Path annotation (Def. 4.3.1): for every pattern node, the set of summary
// nodes it maps to under some embedding. Computed by arc-consistency
// filtering, which is exact on tree patterns; each pass tests candidates
// against a membership bitmap over summary nodes, so a pass costs the
// candidate sets times the summary depth. Each set keeps the order of the
// initial candidates (NodesWithLabel / id order).
AnnotationSets PathAnnotations(const Xam& p, const PathSummary& summary);

// True if the pattern has at least one embedding (S-satisfiability).
bool IsSatisfiable(const Xam& p, const PathSummary& summary);

}  // namespace uload

#endif  // ULOAD_CONTAINMENT_EMBEDDING_H_
