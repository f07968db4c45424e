#include "xml/document.h"

#include <algorithm>
#include <cassert>

#include "xml/parser.h"

namespace uload {

Document::Document() {
  // Index 0 is the synthetic document node (N_d).
  Node doc;
  doc.kind = NodeKind::kDocument;
  doc.label = "#document";
  nodes_.push_back(std::move(doc));
  child_count_.push_back(0);
}

Result<Document> Document::Parse(std::string_view xml) {
  return ParseXml(xml);
}

NodeIndex Document::AddNode(NodeKind kind, std::string label,
                            std::string value, NodeIndex parent) {
  assert(!finalized_ && "AddNode after Finalize");
  assert(parent >= 0 && parent < static_cast<NodeIndex>(nodes_.size()));
  NodeIndex idx = static_cast<NodeIndex>(nodes_.size());
  Node n;
  n.kind = kind;
  n.label = std::move(label);
  n.value = std::move(value);
  n.parent = parent;
  // Nodes arrive in document order, so the new node is its parent's last
  // child so far.
  n.ordinal = child_count_[parent]++;
  nodes_.push_back(std::move(n));
  child_count_.push_back(0);
  return idx;
}

void Document::Finalize() {
  assert(!finalized_);
  child_count_.clear();
  child_count_.shrink_to_fit();
  // Nodes were appended in document order, so index order IS pre-order: pre
  // labels are 1-based over non-document nodes, and a node's descendants
  // are the index interval (i, end(i)). One reverse pass computes every
  // end (a node's end is its last descendant's end, and descendants come
  // later in the arena), held in the post field until the node is reached;
  // then post = end - depth, because exactly `depth` of the nodes before
  // end(i) (the node's proper ancestors, the document node excluded, and
  // the node itself) have not ended by then.
  for (size_t i = 1; i < nodes_.size(); ++i) {
    nodes_[i].sid.pre = static_cast<uint32_t>(i);
    nodes_[i].sid.depth = nodes_[nodes_[i].parent].sid.depth + 1;
    nodes_[i].sid.post = static_cast<uint32_t>(i + 1);
  }
  for (size_t i = nodes_.size(); i-- > 1;) {
    Node& n = nodes_[i];
    const uint32_t end = n.sid.post;
    if (n.parent != 0) {
      uint32_t& parent_end = nodes_[n.parent].sid.post;
      parent_end = std::max(parent_end, end);
    }
    n.sid.post = end - n.sid.depth;
  }
  // The document node gets labels spanning everything.
  const uint32_t count = static_cast<uint32_t>(nodes_.size() - 1);
  nodes_[0].sid = StructuralId{0, count + 1, 0};
  finalized_ = true;
}

NodeIndex Document::root() const {
  const NodeIndex end = SubtreeEnd(0);
  for (NodeIndex c = 1; c < end; c = SubtreeEnd(c)) {
    if (nodes_[c].is_element()) return c;
  }
  return kNoNode;
}

int64_t Document::element_count() const {
  int64_t n = 0;
  for (const Node& node : nodes_) {
    if (node.is_element()) ++n;
  }
  return n;
}

NodeIndex Document::NodeByPre(uint32_t pre) const {
  // pre labels are assigned densely in index order: node i has pre == i.
  if (pre == 0 || pre >= nodes_.size()) return kNoNode;
  return static_cast<NodeIndex>(pre);
}

std::string Document::Value(NodeIndex i) const {
  const Node& n = nodes_[i];
  if (n.is_text() || n.is_attribute()) return n.value;
  // The #text descendants in document order: the subtree's row interval.
  // Attribute values are not in text().
  std::string out;
  const NodeIndex end = SubtreeEnd(i);
  for (NodeIndex c = i + 1; c < end; ++c) {
    if (nodes_[c].is_text()) out += nodes_[c].value;
  }
  return out;
}

int64_t Document::ApproximateBytes() const {
  int64_t bytes = 0;
  for (const Node& n : nodes_) {
    bytes += static_cast<int64_t>(sizeof(Node)) +
             static_cast<int64_t>(n.label.size()) +
             static_cast<int64_t>(n.value.size());
  }
  return bytes;
}

int64_t Document::SerializedSize() const {
  NodeIndex r = root();
  if (r == kNoNode) return 0;
  return static_cast<int64_t>(Content(r).size());
}

}  // namespace uload
