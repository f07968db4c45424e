// Materialized XAMs: a storage structure / index / view described by a XAM
// (thesis Ch. 2) together with its extent over a document, and — for
// R-marked XAMs — an access-path index over the required attributes.
//
// Over the columnar backend, qualifying views do not materialize at all:
// a XAM that is a plain tag/attribute collection (single node under ⊤ via
// //, no predicates, no R markers, no Cont, non-parental id) is kept as a
// *virtual extent* — the store's per-summary-node chunks already are its
// rows, so scans stream straight off the columns and the view costs only a
// compressed row-id list. Everything else falls back to materialization,
// which is correct for any backend. data() materializes a virtual view
// lazily for the test oracle.
#ifndef ULOAD_STORAGE_STORE_H_
#define ULOAD_STORAGE_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/relation.h"
#include "common/mutex.h"
#include "common/status.h"
#include "eval/xam_eval.h"
#include "storage/columnar/columnar_document.h"
#include "xam/xam.h"
#include "xml/document_store.h"

namespace uload {

// True when `xam` is a plain collection pattern a chunked store can serve
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

  // Views move only during single-threaded construction (Materialize
  // returning by value, catalog assembly), so the mutex itself does not —
  // and cannot — move: the destination keeps a fresh, unheld lock.
  MaterializedView(MaterializedView&& other) noexcept
      : name_(std::move(other.name_)),
        definition_(std::move(other.definition_)),
        schema_(std::move(other.schema_)),
        doc_(other.doc_),
        materialized_(other.materialized_),
        data_(std::move(other.data_)),
        index_attrs_(std::move(other.index_attrs_)),
        index_(std::move(other.index_)),
        columnar_(other.columnar_),
        rowset_(std::move(other.rowset_)),
        rowset_rows_(other.rowset_rows_),
        emit_tag_(other.emit_tag_),
        emit_val_(other.emit_val_),
        id_kind_(other.id_kind_) {}
  MaterializedView& operator=(MaterializedView&& other) noexcept {
    name_ = std::move(other.name_);
    definition_ = std::move(other.definition_);
    schema_ = std::move(other.schema_);
    doc_ = other.doc_;
    materialized_ = other.materialized_;
    data_ = std::move(other.data_);
    index_attrs_ = std::move(other.index_attrs_);
    index_ = std::move(other.index_);
    columnar_ = other.columnar_;
    rowset_ = std::move(other.rowset_);
    rowset_rows_ = other.rowset_rows_;
    emit_tag_ = other.emit_tag_;
    emit_val_ = other.emit_val_;
    id_kind_ = other.id_kind_;
    return *this;
  }

  const std::string& name() const { return name_; }
  const Xam& definition() const { return definition_; }
  bool access_restricted() const { return definition_.HasRequired(); }

  // The view's extent as a materialized relation. For virtual extents this
  // materializes on first call (thread-safe) — the physical scan paths never
  // call it; the test oracle does.
  const NestedRelation& data() const;

  // The view schema without materializing (== data().schema_ptr()).
  const SchemaPtr& schema() const { return schema_; }
  // Tuple count without materializing.
  int64_t row_count() const;

  // --- Virtual-extent surface (physical scans; storage/virtual_scan.h) ----

  // Non-null iff this view streams off a columnar store.
  const ColumnarDocument* virtual_store() const { return columnar_; }
  // Decodes the delta+varint row-id list (rows in document order).
  std::vector<NodeIndex> VirtualRows() const;
  // Encoded row-set bytes for streaming decode.
  const std::string& rowset() const { return rowset_; }
  // Which of ID/Tag/Val/Cont the extent emits, and the id representation.
  bool emit_tag() const { return emit_tag_; }
  bool emit_val() const { return emit_val_; }
  IdKind id_kind() const { return id_kind_; }

  // Access path for R-marked views: the row indices of data() matching the
  // equality `bindings` (attr name -> constant), in storage (document)
  // order. Uses the hash index when the bindings cover exactly the indexed
  // top-level attributes; the physical engine streams the rows without
  // materializing.
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

  // Double-checked materialization entry: takes data_mu_, re-checks the
  // flag, and delegates to MaterializeLocked().
  void MaterializeNow() const EXCLUDES(data_mu_);
  // Builds the extent from the virtual row set; the release-store on
  // materialized_ publishes data_ to lock-free readers.
  void MaterializeLocked() const REQUIRES(data_mu_);

  std::string name_;
  Xam definition_;
  SchemaPtr schema_;
  const DocumentStore* doc_ = nullptr;

  // Materialization flag, readable without the mutex (double-checked lock
  // in data(): acquire-load outside, release-store inside data_mu_ once
  // data_ is complete). std::atomic is not movable and views move during
  // single-threaded construction, so wrap it copyable.
  struct AtomicFlag {
    std::atomic<bool> v{false};
    AtomicFlag() = default;
    AtomicFlag(const AtomicFlag& o)
        : v(o.v.load(std::memory_order_acquire)) {}
    AtomicFlag& operator=(const AtomicFlag& o) {
      v.store(o.v.load(std::memory_order_acquire),
              std::memory_order_release);
      return *this;
    }
  };

  // Materialized state; lazy for virtual extents. data_mu_ serializes the
  // builders; data_ itself carries no GUARDED_BY because the committed
  // relation is read lock-free behind the acquire-load of materialized_
  // (data() never touches data_ before the flag is set, and the flag's
  // release-store happens after data_ is complete).
  mutable Mutex data_mu_;
  mutable AtomicFlag materialized_;
  mutable NestedRelation data_;
  // Index: concatenated key over required top-level attrs -> tuple indices.
  std::vector<int> index_attrs_;
  std::unordered_map<std::string, std::vector<int64_t>> index_;

  // Virtual-extent state.
  const ColumnarDocument* columnar_ = nullptr;
  std::string rowset_;  // delta+varint row ids
  int64_t rowset_rows_ = 0;
  bool emit_tag_ = false;
  bool emit_val_ = false;
  IdKind id_kind_ = IdKind::kStructural;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_STORE_H_
