// ColumnarDocument: the column-oriented DocumentStore backend (ROADMAP
// item 2; Arion et al.'s path-partitioned storage adapted to the XAM stack).
//
// The document's nodes live as parallel flat arrays indexed by row (= pre
// label; row 0 is the synthetic #document node): kind, post, depth, parent,
// ordinal, path_id, plus dictionary ids into two string dictionaries (one
// for tags/labels, one for text/attribute values). The pre column itself is
// implicit — rows are stored in pre-order, so the row index is the pre
// label and costs zero bytes.
//
// Rows are additionally partitioned by summary node (path_id): a chunk
// index maps each summary node to its ascending row (pre) list, so a
// tag-derived collection is the merge of a few chunks instead of a scan of
// the whole document. The chunk row lists and dictionary offsets — the
// sorted ID columns — are what the persisted format (columnar_format.h)
// delta+varint compresses.
//
// Instances come from two places: FromDocument() (columns owned by
// vectors) or the mmap-backed loader (fixed-width columns referenced
// directly inside the mapping; the instance keeps the mapping alive).
#ifndef ULOAD_STORAGE_COLUMNAR_COLUMNAR_DOCUMENT_H_
#define ULOAD_STORAGE_COLUMNAR_COLUMNAR_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/columnar/mmap_file.h"
#include "storage/columnar/string_dict.h"
#include "xml/document.h"
#include "xml/document_store.h"

namespace uload {

class ColumnarDocument final : public DocumentStore {
 public:
  // Builds the columnar image of a finalized pointer-tree document. If a
  // PathSummary annotated the document (Node::path_id set), rows are chunked
  // by summary node; otherwise every row lands in no chunk.
  static ColumnarDocument FromDocument(const Document& doc);

  // Empty store (0 rows); only a placeholder target for moves — no accessor
  // may be called before a real store is moved in.
  ColumnarDocument() = default;

  ColumnarDocument(ColumnarDocument&&) = default;
  ColumnarDocument& operator=(ColumnarDocument&&) = default;
  ColumnarDocument(const ColumnarDocument&) = delete;
  ColumnarDocument& operator=(const ColumnarDocument&) = delete;

  // --- DocumentStore -------------------------------------------------------

  std::string_view backend_name() const override { return "columnar"; }
  int64_t size() const override { return n_; }
  NodeIndex root() const override { return root_; }
  int64_t element_count() const override { return element_count_; }

  NodeKind kind(NodeIndex i) const override {
    return static_cast<NodeKind>(kind_[i]);
  }
  std::string_view label(NodeIndex i) const override {
    return labels_.at(label_id_[i]);
  }
  StructuralId sid(NodeIndex i) const override {
    return StructuralId{i == 0 ? 0u : static_cast<uint32_t>(i), post_[i],
                        depth_[i]};
  }
  NodeIndex parent(NodeIndex i) const override { return parent_[i]; }
  uint32_t ordinal(NodeIndex i) const override { return ordinal_[i]; }
  int32_t path_id(NodeIndex i) const override { return path_[i]; }

  NodeIndex SubtreeEnd(NodeIndex i) const override { return subtree_end_[i]; }
  NodeIndex NodeByPre(uint32_t pre) const override {
    if (pre == 0 || static_cast<int64_t>(pre) >= n_) return kNoNode;
    return static_cast<NodeIndex>(pre);
  }
  std::string Value(NodeIndex i) const override;

  int32_t path_id_limit() const override {
    return static_cast<int32_t>(chunk_starts_.size()) - 1;
  }
  std::vector<NodeIndex> ChunkRows(int32_t path) const override;

  int64_t ApproximateBytes() const override;

  // --- Columnar extras (concrete consumers: scans, benches, persistence) ---

  // Raw stored value of a text/attribute row ("" for elements), served
  // straight out of the value dictionary without copying.
  std::string_view raw_value(NodeIndex i) const {
    return values_.at(value_id_[i]);
  }
  // True when Value(i) is servable at dictionary speed: text/attribute rows
  // always, element rows only when FromDocument interned their leaf value.
  // Virtual extents that emit Val require this of every candidate row;
  // otherwise scanning would redo an O(subtree) text walk per tuple.
  bool cheap_value(NodeIndex i) const {
    return kind(i) != NodeKind::kElement || value_id_[i] != 0;
  }
  // Chunk slice without materializing a vector.
  const NodeIndex* chunk_data(int32_t path) const {
    return chunk_rows_.data() + chunk_starts_[path];
  }
  int64_t chunk_size(int32_t path) const {
    return chunk_starts_[path + 1] - chunk_starts_[path];
  }

  struct BytesBreakdown {
    int64_t column_bytes = 0;       // fixed-width columns
    int64_t dict_bytes = 0;         // both dictionaries (offsets + blobs)
    int64_t chunk_index_bytes = 0;  // path-partitioning index
  };
  BytesBreakdown ApproximateBytesBreakdown() const;

 private:
  friend class ColumnarFormatIO;  // persistence (columnar_format.cc)

  // A fixed-width column either owns its storage (FromDocument, or columns
  // decoded at load) or references bytes inside the mapping. Vector moves
  // keep the heap buffer, so the data pointer survives moves; copying is
  // disabled at the class level.
  template <typename T>
  struct Column {
    const T* data = nullptr;
    std::vector<T> owned;

    void SetOwned(std::vector<T> v) {
      owned = std::move(v);
      data = owned.data();
    }
    void SetExternal(const T* p) {
      owned.clear();
      data = p;
    }
    T operator[](NodeIndex i) const { return data[i]; }
  };

  // Recomputes subtree_end_/root_/element_count_ from the parent column;
  // fails on structurally inconsistent links (loader input is untrusted).
  Status BuildStructure();
  // Groups rows by path_id into the chunk index (builder path; the loader
  // decodes the persisted index instead and cross-checks it).
  void BuildChunkIndexFromPaths();

  int64_t n_ = 0;
  Column<uint8_t> kind_;
  Column<uint32_t> post_;
  Column<uint32_t> depth_;
  Column<int32_t> parent_;
  Column<uint32_t> ordinal_;
  Column<int32_t> path_;
  Column<uint32_t> label_id_;
  Column<uint32_t> value_id_;
  StringDict labels_;
  StringDict values_;

  // Derived (never persisted).
  std::vector<NodeIndex> subtree_end_;
  NodeIndex root_ = kNoNode;
  int64_t element_count_ = 0;

  // Chunk index: rows grouped by path_id, ascending inside each group.
  std::vector<int64_t> chunk_starts_;  // path_id_limit() + 1 entries
  std::vector<NodeIndex> chunk_rows_;

  // Alive only for mmap-loaded instances; columns and dictionary blobs may
  // point into it.
  MmapFile mapping_;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_COLUMNAR_COLUMNAR_DOCUMENT_H_
