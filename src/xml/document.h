// Document: an arena of Nodes in document (pre-)order, with structural and
// Dewey identifiers assigned at Finalize() time.
#ifndef ULOAD_XML_DOCUMENT_H_
#define ULOAD_XML_DOCUMENT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document_store.h"
#include "xml/ids.h"
#include "xml/node.h"

namespace uload {

// The pointer-tree backend of the DocumentStore interface: nodes in a flat
// arena in document order, each linked to its parent.
class Document : public DocumentStore {
 public:
  Document();

  // --- Construction -------------------------------------------------------

  // Parses `xml` (elements, attributes, text, comments, CDATA, entities).
  // Whitespace-only text nodes are dropped. The returned document is
  // finalized.
  static Result<Document> Parse(std::string_view xml);

  // Builder interface: nodes must be added in document order (parent before
  // children, siblings left to right; attributes before element children).
  // Returns the new node's index. Constant time.
  NodeIndex AddNode(NodeKind kind, std::string label, std::string value,
                    NodeIndex parent);
  // Assigns (pre, post, depth) and frees AddNode's child counts. Must be
  // called once after the last AddNode and before any query.
  void Finalize();

  // --- Access (DocumentStore implementation) -------------------------------

  std::string_view backend_name() const override { return "pointer"; }

  // The unique element child of the document node.
  NodeIndex root() const override;

  int64_t size() const override { return static_cast<int64_t>(nodes_.size()); }
  const Node& node(NodeIndex i) const { return nodes_[i]; }
  Node& mutable_node(NodeIndex i) { return nodes_[i]; }

  NodeKind kind(NodeIndex i) const override { return nodes_[i].kind; }
  std::string_view label(NodeIndex i) const override {
    return nodes_[i].label;
  }
  StructuralId sid(NodeIndex i) const override { return nodes_[i].sid; }
  NodeIndex parent(NodeIndex i) const override { return nodes_[i].parent; }
  uint32_t ordinal(NodeIndex i) const override { return nodes_[i].ordinal; }

  // Number of element nodes (the N statistic of Fig. 4.13).
  int64_t element_count() const override;

  // Derived from the labels: a node's post label counts the nodes that end
  // before it, so post + depth is one past its last descendant.
  NodeIndex SubtreeEnd(NodeIndex i) const override {
    return i == 0 ? static_cast<NodeIndex>(nodes_.size())
                  : static_cast<NodeIndex>(nodes_[i].sid.post +
                                           nodes_[i].sid.depth);
  }

  // Node index with the given pre label (pre labels are dense, 1-based over
  // non-document nodes), or kNoNode.
  NodeIndex NodeByPre(uint32_t pre) const override;

  // XPath text() semantics: concatenation of all descendant #text values in
  // document order; for attributes/texts, their own value (§1.1).
  std::string Value(NodeIndex i) const override;

  // Arena footprint: node structs plus label/value payloads.
  int64_t ApproximateBytes() const override;

  // Total serialized size in bytes (the "Size" statistic of Fig. 4.13).
  int64_t SerializedSize() const;

  bool finalized() const { return finalized_; }

 private:
  std::vector<Node> nodes_;
  // Construction state, freed by Finalize: the child count of every node,
  // so AddNode assigns ordinals without walking sibling lists.
  std::vector<uint32_t> child_count_;
  bool finalized_ = false;
};

}  // namespace uload

#endif  // ULOAD_XML_DOCUMENT_H_
