// DocumentStore: the narrow, storage-neutral read interface over one XML
// document (ROADMAP item 2 — physical data independence below the XAM
// layer).
//
// Everything above the storage layer — tag-derived collections, XAM
// semantics, the Navigate operators, view materialization — consumes this
// interface only, so the physical representation of the document is
// swappable: the legacy pointer tree (xml/document.h) and the columnar
// store (storage/columnar/columnar_document.h) both implement it, and a
// query must produce byte-identical results over either.
//
// The addressing contract every implementation shares:
//  * Rows are the document's nodes in document (pre-)order; row 0 is the
//    synthetic #document node, and for every other row the pre label equals
//    the row index (pre labels are dense and 1-based over non-document
//    nodes). A NodeIndex is therefore both a row number and a pre label.
//  * A node's descendants occupy the contiguous row interval
//    (i, SubtreeEnd(i)), which is what makes flat column storage a
//    faithful representation of the tree. Its children are the rows
//    i + 1, SubtreeEnd(i + 1), ... below SubtreeEnd(i): every subtree walk
//    hops along that chain and allocates nothing.
#ifndef ULOAD_XML_DOCUMENT_STORE_H_
#define ULOAD_XML_DOCUMENT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/ids.h"
#include "xml/node.h"

namespace uload {

class DocumentStore {
 public:
  virtual ~DocumentStore() = default;

  // Implementation tag for diagnostics and bench reporting ("pointer",
  // "columnar").
  virtual std::string_view backend_name() const = 0;

  // --- Shape ---------------------------------------------------------------

  // Row count, including the synthetic document node at row 0.
  virtual int64_t size() const = 0;
  // The synthetic document node is row 0 in every backend.
  NodeIndex document_node() const { return 0; }
  // The unique element child of the document node, kNoNode if absent.
  virtual NodeIndex root() const = 0;
  // Number of element rows (the N statistic of Fig. 4.13).
  virtual int64_t element_count() const = 0;

  // --- Per-row column accessors -------------------------------------------

  virtual NodeKind kind(NodeIndex i) const = 0;
  // Element tag, attribute name (without '@'), "#text", or "#document".
  // The view is valid as long as the store is.
  virtual std::string_view label(NodeIndex i) const = 0;
  virtual StructuralId sid(NodeIndex i) const = 0;
  virtual NodeIndex parent(NodeIndex i) const = 0;
  // 0-based position among the parent's children (all kinds).
  virtual uint32_t ordinal(NodeIndex i) const = 0;

  // --- Derived access ------------------------------------------------------

  // Exclusive end of i's subtree: its descendants are the rows
  // (i, SubtreeEnd(i)); size() for the document node.
  virtual NodeIndex SubtreeEnd(NodeIndex i) const = 0;
  // Children of `i` in document order.
  std::vector<NodeIndex> Children(NodeIndex i) const {
    std::vector<NodeIndex> out;
    const NodeIndex end = SubtreeEnd(i);
    for (NodeIndex c = i + 1; c < end; c = SubtreeEnd(c)) out.push_back(c);
    return out;
  }
  // Row with the given pre label, or kNoNode (pre 0 — the document node —
  // deliberately resolves to kNoNode, matching the pointer backend).
  virtual NodeIndex NodeByPre(uint32_t pre) const = 0;
  // XPath text() semantics: concatenation of all descendant #text values in
  // document order; attributes/texts return their own value (§1.1).
  virtual std::string Value(NodeIndex i) const = 0;
  // Serialized subtree ("content" in §1.1): elements as markup, attributes
  // as name="value", text as escaped character data (xml/serialize.h).
  std::string Content(NodeIndex i) const;
  // Dewey identifier (root element = {1}); attributes and texts take their
  // ordinal arc like any child.
  DeweyId Dewey(NodeIndex i) const {
    DeweyId path;
    for (NodeIndex cur = i; cur != kNoNode && kind(cur) != NodeKind::kDocument;
         cur = parent(cur)) {
      path.push_back(ordinal(cur) + 1);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  // Resident-footprint estimate in bytes (bench reporting).
  virtual int64_t ApproximateBytes() const = 0;

  // --- Convenience (shared implementations) --------------------------------

  bool is_element(NodeIndex i) const { return kind(i) == NodeKind::kElement; }
  bool is_attribute(NodeIndex i) const {
    return kind(i) == NodeKind::kAttribute;
  }
  bool is_text(NodeIndex i) const { return kind(i) == NodeKind::kText; }
};

}  // namespace uload

#endif  // ULOAD_XML_DOCUMENT_STORE_H_
