// Path summaries (strong DataGuides) and their enhanced form with
// integrity-constraint edge annotations (thesis §4.2).
//
// A summary node exists for every distinct rooted label path in the
// document; φ maps every document node to its summary node (Def. 4.2.1).
// Enhanced summaries label each parent→child edge with:
//   kOne  ('1'): every instance of the parent path has exactly one child
//                on the child path;
//   kPlus ('+'): every instance has at least one such child ("strong edge");
//   kStar ('*'): no constraint.
#ifndef ULOAD_SUMMARY_PATH_SUMMARY_H_
#define ULOAD_SUMMARY_PATH_SUMMARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "xml/document.h"
#include "xml/node.h"

namespace uload {

// Summary node ids are small dense integers; 0 is the synthetic document
// node, real paths are numbered from 1 in order of first appearance (this
// matches the numbering convention of Fig. 4.6).
using SummaryNodeId = int32_t;
inline constexpr SummaryNodeId kNoSummaryNode = -1;

enum class EdgeAnnotation : uint8_t { kStar = 0, kPlus, kOne };

struct SummaryNode {
  // Element tag, "@name" for attribute paths, "#text" for text paths.
  std::string label;
  NodeKind kind = NodeKind::kElement;
  SummaryNodeId parent = kNoSummaryNode;
  std::vector<SummaryNodeId> children;
  // Annotation of the edge from `parent` to this node.
  EdgeAnnotation annotation = EdgeAnnotation::kStar;
  uint32_t depth = 0;  // document node = 0, root element = 1
  // Number of document nodes mapped to this path (for statistics / cost).
  int64_t cardinality = 0;
  // Pre/post interval over the summary tree, for O(1) ancestor tests.
  uint32_t pre = 0;
  uint32_t post = 0;
};

class PathSummary {
 public:
  // Builds the summary of `doc` and annotates every document node's
  // `path_id` with its summary node (the φ function).
  static PathSummary Build(Document* doc);

  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }
  const SummaryNode& node(SummaryNodeId id) const { return nodes_[id]; }

  SummaryNodeId document_node() const { return 0; }
  // Summary node of the document's root element.
  SummaryNodeId root() const;

  // All summary nodes with the given label (element tags are stored bare,
  // attribute paths under "@name", text under "#text").
  const std::vector<SummaryNodeId>& NodesWithLabel(
      const std::string& label) const;

  // All element-kind summary nodes, in id order.
  const std::vector<SummaryNodeId>& ElementNodes() const {
    return element_nodes_;
  }

  bool IsAncestor(SummaryNodeId a, SummaryNodeId b) const;
  bool IsParent(SummaryNodeId a, SummaryNodeId b) const;

  // Descendants of `a` (excluding `a`) in pre-order, optionally filtered by
  // label; empty label matches any element/attribute node. A range scan over
  // `a`'s pre-order interval of the per-label index.
  std::vector<SummaryNodeId> Descendants(SummaryNodeId a,
                                         const std::string& label) const;
  // Children of `a` filtered the same way.
  std::vector<SummaryNodeId> ChildrenWithLabel(SummaryNodeId a,
                                               const std::string& label) const;

  // "/site/people/person"-style rooted path.
  std::string PathString(SummaryNodeId id) const;
  // Summary node reached by the rooted label path, or kNoSummaryNode.
  SummaryNodeId NodeByPath(const std::vector<std::string>& labels) const;

  // True if every edge on the path from `a` down to descendant `b` is
  // annotated kOne (used by the nesting-sequence relaxation of §4.4.5).
  bool AllOneToOneBetween(SummaryNodeId a, SummaryNodeId b) const;

  // True if every edge from `a` down to descendant `b` is strong (kPlus or
  // kOne): every document instance of path `a` has a descendant on path `b`.
  bool AllStrongBetween(SummaryNodeId a, SummaryNodeId b) const;

  // Statistics for Fig. 4.13.
  int64_t strong_edge_count() const { return strong_edges_; }
  int64_t one_to_one_edge_count() const { return one_edges_; }

  // Conformance check: S |= doc (Def. 4.2.2) — doc's summary equals *this
  // structurally and doc satisfies all edge annotations.
  bool Conforms(const Document& doc) const;

  // Text serialization (one node per line: id, parent, kind, annotation,
  // cardinality, label) — summaries are persisted catalog metadata; the
  // original DataGuide proposal keeps them alongside the store.
  std::string Serialize() const;
  static Result<PathSummary> Deserialize(std::string_view text);

 private:
  std::vector<SummaryNode> nodes_;
  // Label -> nodes in id order, and the same lists sorted by `pre`.
  std::unordered_map<std::string, std::vector<SummaryNodeId>> by_label_;
  std::unordered_map<std::string, std::vector<SummaryNodeId>> by_label_pre_;
  // Node ids in pre-order: by_pre_[n.pre - 1] is n.
  std::vector<SummaryNodeId> by_pre_;
  // Largest `pre` in each node's subtree: the descendants of `a` are the
  // nodes with pre in (a.pre, last_pre_[a]].
  std::vector<uint32_t> last_pre_;
  std::vector<SummaryNodeId> element_nodes_;
  std::vector<SummaryNodeId> empty_;
  int64_t strong_edges_ = 0;
  int64_t one_edges_ = 0;

  // Numbers the nodes in pre/post order and builds the label, pre-order and
  // element indexes; runs once the node array is complete.
  void BuildIndexes();
};

}  // namespace uload

#endif  // ULOAD_SUMMARY_PATH_SUMMARY_H_
