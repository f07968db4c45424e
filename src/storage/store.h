// Materialized XAMs: a storage structure / index / view described by a XAM
// (thesis Ch. 2) together with its extent over a document, and — for
// R-marked XAMs — an access-path index over the required attributes.
//
// Over the columnar backend, qualifying views do not materialize at all:
// a XAM that is a plain tag/attribute collection (single node under ⊤ via
// //, no predicates, no R markers, no Cont, non-parental id) is kept as a
// *virtual extent* — its tuples are store rows, so scans stream straight
// off the columns and the view costs only a compressed row-id list.
// Everything else falls back to materialization, which is correct for any
// backend. A virtual extent is never
// materialized: its data() is empty, and the test oracle evaluates its
// definition (EvaluateXam) instead.
#ifndef ULOAD_STORAGE_STORE_H_
#define ULOAD_STORAGE_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/relation.h"
#include "common/status.h"
#include "eval/xam_eval.h"
#include "storage/columnar/columnar_document.h"
#include "xam/xam.h"
#include "xml/document_store.h"

namespace uload {

// True when `xam` is a plain collection pattern a column store can serve
// without materialization (see file comment for the exact gate).
bool QualifiesAsVirtualExtent(const Xam& xam);

class MaterializedView {
 public:
  // Evaluates `definition` over `doc` and builds the index when the XAM has
  // R markers (full data is kept: Def. 2.2.6 semantics are computed against
  // [[χ⁰]] restricted by the bindings). Over a ColumnarDocument, qualifying
  // definitions become virtual extents instead (no materialization).
  static Result<MaterializedView> Materialize(std::string name,
                                              Xam definition,
                                              const DocumentStore& doc);

  const std::string& name() const { return name_; }
  const Xam& definition() const { return definition_; }
  bool access_restricted() const { return definition_.HasRequired(); }

  // The view's stored extent. A virtual extent stores no tuples: its
  // data() is empty, and scans stream its rows off the column store.
  const NestedRelation& data() const { return data_; }

  // The view schema: definition().ViewSchema(), the schema of the extent.
  const SchemaPtr& schema() const { return schema_; }
  // The order the extent is declared in, computed once from the definition
  // (ExtentOrder, eval/xam_eval.h): the same for a stored and a virtual
  // extent, and inherited by the rows an index lookup selects.
  const OrderDescriptor& order() const { return order_; }
  // Tuple count of the extent, stored or virtual.
  int64_t row_count() const {
    return columnar_ != nullptr ? rowset_rows_ : data_.size();
  }

  // --- Virtual-extent surface (physical scans; storage/virtual_scan.h) ----

  // Non-null iff this view streams off a columnar store.
  const ColumnarDocument* virtual_store() const { return columnar_; }
  // Encoded delta+varint row ids (rows in document order).
  const std::string& rowset() const { return rowset_; }

  // Access path for R-marked views: the row indices of data() matching the
  // equality `bindings` (attr name -> constant), in storage (document)
  // order. A row matches when operator== holds, so a numeric constant
  // matches the stored string that reads as it. The hash index narrows the
  // candidates when the bindings cover exactly the indexed top-level
  // attributes; the physical engine streams the rows without materializing.
  Result<std::vector<int64_t>> LookupRows(
      const std::vector<std::pair<std::string, AtomicValue>>& bindings) const;

  // Storage footprint estimate in bytes (benchmark reporting); virtual
  // extents report only their row-set — the shared column store is
  // accounted once, at the document level.
  int64_t ApproximateBytes() const;

  // Per-component breakdown so storage-model comparisons stay honest.
  struct StorageBytes {
    int64_t data_bytes = 0;    // materialized tuple payloads
    int64_t index_bytes = 0;   // R-marker hash index
    int64_t rowset_bytes = 0;  // virtual extent's compressed row ids
    bool virtualized = false;
  };
  StorageBytes ApproximateBytesBreakdown() const;

 private:
  MaterializedView() = default;

  std::string name_;
  Xam definition_;
  SchemaPtr schema_;
  OrderDescriptor order_;
  NestedRelation data_;
  // Index: concatenated key over required top-level attrs -> tuple indices.
  std::vector<int> index_attrs_;
  std::unordered_map<std::string, std::vector<int64_t>> index_;

  // Virtual-extent state.
  const ColumnarDocument* columnar_ = nullptr;
  std::string rowset_;  // delta+varint row ids
  int64_t rowset_rows_ = 0;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_STORE_H_
