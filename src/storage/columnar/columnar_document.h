// ColumnarDocument: the column-oriented DocumentStore backend (ROADMAP
// item 2).
//
// The document's nodes live as parallel flat arrays indexed by row (= pre
// label; row 0 is the synthetic #document node): kind and parent, plus
// dictionary ids into two string dictionaries (one for tags/labels, one for
// text/attribute values). These are the stored columns; the pre column is
// implicit — rows are stored in pre-order, so the row index is the pre
// label and costs zero bytes. Everything else structural (subtree ends,
// depth, ordinal, and post = subtree end - depth) is derived from the parent
// column in one pass at construction, so a persisted image cannot carry
// labels that disagree with its tree.
//
// Path partitioning is not kept here: the catalog describes it as
// PathPartitionedModel's views, the only form the optimizer can use.
//
// Instances come from two places: FromDocument() (columns owned by
// vectors) or the mmap-backed loader (stored columns referenced directly
// inside the mapping; the instance keeps the mapping alive).
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
  // Builds the columnar image of a finalized pointer-tree document.
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
  // post = subtree end - depth, as Document::Finalize assigns it (row 0's
  // post is size()).
  StructuralId sid(NodeIndex i) const override {
    return StructuralId{static_cast<uint32_t>(i),
                        static_cast<uint32_t>(subtree_end_[i]) - depth_[i],
                        depth_[i]};
  }
  NodeIndex parent(NodeIndex i) const override { return parent_[i]; }
  uint32_t ordinal(NodeIndex i) const override { return ordinal_[i]; }

  NodeIndex SubtreeEnd(NodeIndex i) const override { return subtree_end_[i]; }
  NodeIndex NodeByPre(uint32_t pre) const override {
    if (pre == 0 || static_cast<int64_t>(pre) >= n_) return kNoNode;
    return static_cast<NodeIndex>(pre);
  }
  std::string Value(NodeIndex i) const override;

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

  struct BytesBreakdown {
    int64_t column_bytes = 0;  // stored and derived fixed-width columns
    int64_t dict_bytes = 0;    // both dictionaries (offsets + blobs)
  };
  BytesBreakdown ApproximateBytesBreakdown() const;

 private:
  friend class ColumnarFormatIO;  // persistence (columnar_format.cc)

  // A stored column either owns its storage (FromDocument) or references
  // bytes inside the mapping. Vector moves keep the heap buffer, so the
  // data pointer survives moves; copying is disabled at the class level.
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

  // Derives the structural columns, root_ and element_count_ from the
  // parent column; fails on structurally inconsistent links and on a
  // document node whose children are not exactly one element (loader input
  // is untrusted).
  Status BuildStructure();

  int64_t n_ = 0;
  Column<uint8_t> kind_;
  Column<int32_t> parent_;
  Column<uint32_t> label_id_;
  Column<uint32_t> value_id_;
  StringDict labels_;
  StringDict values_;

  // Derived by BuildStructure (never persisted).
  std::vector<NodeIndex> subtree_end_;
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> ordinal_;
  NodeIndex root_ = kNoNode;
  int64_t element_count_ = 0;

  // Alive only for mmap-loaded instances; columns and dictionary blobs may
  // point into it.
  MmapFile mapping_;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_COLUMNAR_COLUMNAR_DOCUMENT_H_
