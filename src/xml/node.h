// In-memory XML tree node (thesis §1.1).
//
// A document is a tree (N, E) with N = N_d ∪ N_e ∪ N_a (document, element,
// attribute nodes); text is modeled as first-class #text nodes so that the
// Val of an element can be recovered exactly.
#ifndef ULOAD_XML_NODE_H_
#define ULOAD_XML_NODE_H_

#include <cstdint>
#include <string>

#include "xml/ids.h"

namespace uload {

enum class NodeKind : uint8_t {
  kDocument = 0,
  kElement,
  kAttribute,
  kText,
};

// Node index inside its Document; -1 means "none".
using NodeIndex = int32_t;
inline constexpr NodeIndex kNoNode = -1;

struct Node {
  NodeKind kind = NodeKind::kElement;
  // Element tag, attribute name (without '@'), or "#text" for text nodes.
  std::string label;
  // Text content of a text node / value of an attribute; empty for elements.
  std::string value;

  NodeIndex parent = kNoNode;
  // 0-based position among the parent's children (all kinds).
  uint32_t ordinal = 0;

  StructuralId sid;
  // Summary node this node maps to (φ in Def. 4.2.1); set by
  // PathSummary::Build, kNoNode before that.
  int32_t path_id = kNoNode;

  bool is_element() const { return kind == NodeKind::kElement; }
  bool is_attribute() const { return kind == NodeKind::kAttribute; }
  bool is_text() const { return kind == NodeKind::kText; }
};

}  // namespace uload

#endif  // ULOAD_XML_NODE_H_
