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
  std::vector<uint32_t> post(n), depth(n), ordinal(n), label_id(n),
      value_id(n);
  std::vector<int32_t> parent(n), path(n);
  for (NodeIndex i = 0; i < n; ++i) {
    const Node& nd = doc.node(i);
    kind[i] = static_cast<uint8_t>(nd.kind);
    post[i] = nd.sid.post;
    depth[i] = nd.sid.depth;
    parent[i] = nd.parent;
    ordinal[i] = nd.ordinal;
    path[i] = nd.path_id;
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
  c.post_.SetOwned(std::move(post));
  c.depth_.SetOwned(std::move(depth));
  c.parent_.SetOwned(std::move(parent));
  c.ordinal_.SetOwned(std::move(ordinal));
  c.path_.SetOwned(std::move(path));
  c.label_id_.SetOwned(std::move(label_id));
  c.value_id_.SetOwned(std::move(value_id));
  Status derived = c.BuildStructure();
  (void)derived;  // a finalized Document is structurally consistent
  c.BuildChunkIndexFromPaths();
  return c;
}

Status ColumnarDocument::BuildStructure() {
  subtree_end_.assign(static_cast<size_t>(n_), 0);
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
  std::vector<NodeIndex> stack = {0};
  for (NodeIndex i = 1; i < n_; ++i) {
    NodeIndex p = parent_[i];
    if (p < 0 || p >= i) {
      return Status::ParseError("columnar document: bad parent link");
    }
    while (stack.back() != p) {
      subtree_end_[stack.back()] = i;
      stack.pop_back();
      if (stack.empty()) {
        return Status::ParseError(
            "columnar document: parent not on ancestor path");
      }
    }
    stack.push_back(i);
    if (kind(i) == NodeKind::kElement) ++element_count_;
  }
  while (!stack.empty()) {
    subtree_end_[stack.back()] = static_cast<NodeIndex>(n_);
    stack.pop_back();
  }
  for (NodeIndex c = 1; c < n_; c = subtree_end_[c]) {
    if (kind(c) == NodeKind::kElement) {
      root_ = c;
      break;
    }
  }
  return Status::Ok();
}

void ColumnarDocument::BuildChunkIndexFromPaths() {
  // Group rows by path_id; rows without a summary annotation fall outside
  // every chunk.
  int32_t limit = 0;
  for (NodeIndex i = 0; i < n_; ++i) {
    if (path_[i] >= limit) limit = path_[i] + 1;
  }
  std::vector<int64_t> counts(static_cast<size_t>(limit) + 1, 0);
  int64_t chunked = 0;
  for (NodeIndex i = 0; i < n_; ++i) {
    if (path_[i] >= 0) {
      ++counts[path_[i]];
      ++chunked;
    }
  }
  chunk_starts_.assign(static_cast<size_t>(limit) + 1, 0);
  for (int32_t p = 0; p < limit; ++p) {
    chunk_starts_[p + 1] = chunk_starts_[p] + counts[p];
  }
  chunk_rows_.assign(static_cast<size_t>(chunked), 0);
  std::vector<int64_t> cursor(chunk_starts_.begin(), chunk_starts_.end() - 1);
  for (NodeIndex i = 0; i < n_; ++i) {
    if (path_[i] >= 0) chunk_rows_[cursor[path_[i]]++] = i;
  }
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

std::vector<NodeIndex> ColumnarDocument::ChunkRows(int32_t path) const {
  if (path < 0 || path >= path_id_limit()) return {};
  return std::vector<NodeIndex>(chunk_data(path),
                                chunk_data(path) + chunk_size(path));
}

ColumnarDocument::BytesBreakdown ColumnarDocument::ApproximateBytesBreakdown()
    const {
  BytesBreakdown b;
  b.column_bytes = n_ * static_cast<int64_t>(
                            sizeof(uint8_t) +     // kind
                            3 * sizeof(uint32_t) +  // post, depth, ordinal
                            2 * sizeof(int32_t) +   // parent, path
                            2 * sizeof(uint32_t) +  // label_id, value_id
                            sizeof(NodeIndex));     // subtree_end (derived)
  b.dict_bytes = labels_.ApproximateBytes() + values_.ApproximateBytes();
  b.chunk_index_bytes =
      static_cast<int64_t>(chunk_starts_.size() * sizeof(int64_t) +
                           chunk_rows_.size() * sizeof(NodeIndex));
  return b;
}

int64_t ColumnarDocument::ApproximateBytes() const {
  BytesBreakdown b = ApproximateBytesBreakdown();
  return b.column_bytes + b.dict_bytes + b.chunk_index_bytes;
}

}  // namespace uload
