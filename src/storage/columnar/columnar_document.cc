#include "storage/columnar/columnar_document.h"

namespace uload {

ColumnarDocument ColumnarDocument::FromDocument(const Document& doc) {
  ColumnarDocument c;
  const int64_t n = doc.size();
  c.n_ = n;
  // Value id 0 is reserved for the empty string; for element rows it doubles
  // as the "no interned value" marker (Value() falls back to the subtree
  // text walk, which yields "" for an empty leaf anyway).
  c.values_.Intern("");
  std::vector<uint8_t> kind(n);
  std::vector<uint32_t> label_id(n), value_id(n);
  std::vector<int32_t> parent(n);
  for (NodeIndex i = 0; i < n; ++i) {
    const Node& nd = doc.node(i);
    kind[i] = static_cast<uint8_t>(nd.kind);
    parent[i] = nd.parent;
    label_id[i] = c.labels_.Intern(nd.label);
    value_id[i] = (nd.is_text() || nd.is_attribute())
                      ? c.values_.Intern(nd.value)
                      : 0;
  }
  // Leaf elements (no element children) get their text value interned too:
  // Value() then runs at dictionary speed — the case virtual extents scan —
  // and the common <tag>text</tag> shape dedups against its own text child,
  // so the dictionary barely grows. Elements with element children keep the
  // on-demand subtree walk; storing every ancestor's concatenation would
  // blow the dictionary up by O(depth × text).
  for (NodeIndex i = 0; i < n; ++i) {
    if (kind[i] != static_cast<uint8_t>(NodeKind::kElement)) continue;
    bool leaf = true;
    const NodeIndex end = doc.SubtreeEnd(i);
    for (NodeIndex child = i + 1; child < end; child = doc.SubtreeEnd(child)) {
      if (doc.node(child).is_element()) {
        leaf = false;
        break;
      }
    }
    if (leaf) value_id[i] = c.values_.Intern(doc.Value(i));
  }
  c.kind_.SetOwned(std::move(kind));
  c.parent_.SetOwned(std::move(parent));
  c.label_id_.SetOwned(std::move(label_id));
  c.value_id_.SetOwned(std::move(value_id));
  // A parsed Document is structurally consistent. One assembled through
  // AddNode may give its document node other children than one element;
  // it still gets every derived column and the pointer tree's root.
  (void)c.BuildStructure();
  return c;
}

Status ColumnarDocument::BuildStructure() {
  const size_t n = static_cast<size_t>(n_);
  subtree_end_.assign(n, 0);
  depth_.assign(n, 0);
  ordinal_.assign(n, 0);
  element_count_ = 0;
  root_ = kNoNode;
  if (n_ <= 0) return Status::ParseError("columnar document: no rows");
  if (parent_[0] != kNoNode ||
      kind(0) != NodeKind::kDocument) {
    return Status::ParseError("columnar document: row 0 is not the document");
  }
  // Rows are pre-order, so a node's subtree is a contiguous row interval;
  // recover the interval ends with a parent stack. Inconsistent parent links
  // (forward references, parents not on the ancestor path) fail cleanly.
  // A node's depth is its parent's plus one; the last row popped before it
  // is its previous sibling, whose ordinal it follows.
  std::vector<NodeIndex> stack = {0};
  for (NodeIndex i = 1; i < n_; ++i) {
    NodeIndex p = parent_[i];
    if (p < 0 || p >= i) {
      return Status::ParseError("columnar document: bad parent link");
    }
    NodeIndex previous_sibling = kNoNode;
    while (stack.back() != p) {
      previous_sibling = stack.back();
      subtree_end_[previous_sibling] = i;
      stack.pop_back();
      if (stack.empty()) {
        return Status::ParseError(
            "columnar document: parent not on ancestor path");
      }
    }
    depth_[i] = depth_[p] + 1;
    ordinal_[i] =
        previous_sibling == kNoNode ? 0 : ordinal_[previous_sibling] + 1;
    stack.push_back(i);
    if (kind(i) == NodeKind::kElement) ++element_count_;
  }
  for (NodeIndex open : stack) subtree_end_[open] = static_cast<NodeIndex>(n_);
  // The root is the document node's first element child, as in
  // Document::root(). A well-formed tree has exactly that one child: row 1,
  // whose subtree then runs to the end.
  for (NodeIndex c = 1; c < n_; c = subtree_end_[c]) {
    if (kind(c) == NodeKind::kElement) {
      root_ = c;
      break;
    }
  }
  if (root_ != 1 || subtree_end_[1] != n_) {
    return Status::ParseError(
        "columnar document: the document node needs exactly one child, an "
        "element");
  }
  return Status::Ok();
}

std::string ColumnarDocument::Value(NodeIndex i) const {
  NodeKind k = kind(i);
  if (k == NodeKind::kText || k == NodeKind::kAttribute) {
    return std::string(raw_value(i));
  }
  // Leaf elements carry their text value in the dictionary (id 0 means
  // "not interned"; the walk below returns "" for those anyway).
  if (value_id_[i] != 0) return std::string(values_.at(value_id_[i]));
  // text() of an element: descendants are the contiguous subtree interval;
  // concatenate its #text rows, skipping attribute subtrees.
  std::string out;
  NodeIndex end = subtree_end_[i];
  for (NodeIndex j = i + 1; j < end;) {
    NodeKind kj = kind(j);
    if (kj == NodeKind::kAttribute) {
      j = subtree_end_[j];
      continue;
    }
    if (kj == NodeKind::kText) out += raw_value(j);
    ++j;
  }
  return out;
}

ColumnarDocument::BytesBreakdown ColumnarDocument::ApproximateBytesBreakdown()
    const {
  BytesBreakdown b;
  b.column_bytes = n_ * static_cast<int64_t>(
                            sizeof(uint8_t) +       // kind
                            sizeof(int32_t) +       // parent
                            2 * sizeof(uint32_t) +  // label_id, value_id
                            sizeof(NodeIndex) +     // subtree_end (derived)
                            2 * sizeof(uint32_t));  // depth, ordinal (derived)
  b.dict_bytes = labels_.ApproximateBytes() + values_.ApproximateBytes();
  return b;
}

int64_t ColumnarDocument::ApproximateBytes() const {
  BytesBreakdown b = ApproximateBytesBreakdown();
  return b.column_bytes + b.dict_bytes;
}

}  // namespace uload
