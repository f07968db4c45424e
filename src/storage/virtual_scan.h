// Row access for virtual column-backed extents (storage/store.h).
//
// A virtualized view has no materialized relation: its tuples are assembled
// on the fly from the ColumnarDocument's columns, guided by the view's
// compressed row-id set. ColumnarRowReader decodes that row set, assembles
// tuples and proves orders; FusedPipeline_φ's columnar source
// (exec/fusion.h) loops over the decoded rows, serially and as one slice per
// exchange worker. Scan, slice and order contract are those of a
// materialized extent: physically different access paths, one logical leaf.
#ifndef ULOAD_STORAGE_VIRTUAL_SCAN_H_
#define ULOAD_STORAGE_VIRTUAL_SCAN_H_

#include <optional>
#include <vector>

#include "exec/order_descriptor.h"
#include "storage/store.h"

namespace uload {

// Row-set decoding, tuple assembly and order adoption for one virtual
// column-backed extent. Stateless across rows: DecodeSlice materializes a
// contiguous row-id range, MakeRow assembles one output tuple from the
// backing columns.
class ColumnarRowReader {
 public:
  // Assembles the `keep` columns of the view's schema (positions,
  // ascending), or every column when `keep` is nullopt. A dropped column is
  // never decoded.
  explicit ColumnarRowReader(
      const MaterializedView* view,
      const std::optional<std::vector<int>>& keep = std::nullopt);

  const MaterializedView* view() const { return view_; }
  // The assembled tuples' schema: the view's, restricted to the kept
  // columns.
  const SchemaPtr& schema() const { return schema_; }

  // Whether the extent can prove `order` (over kept columns) from its
  // physical layout: the ID column streams in strictly ascending document
  // (pre) order; a constant-tag view satisfies any order on its Tag column
  // trivially. Val keys are never provable — callers fall back to a Sort_φ
  // enforcer, which is a no-op rewrite when the data happens to be sorted
  // already, so results stay identical to the materialized backend either
  // way.
  bool Satisfies(const OrderDescriptor& order) const;

  // Decodes the [part*n/nparts, (part+1)*n/nparts) slice of the compressed
  // rowset into *rows. The prefix is skip-decoded (a varint add per row,
  // nothing stored) and decoding stops at the slice end, so k parallel
  // workers hold 1/k of the rows each instead of k full copies.
  void DecodeSlice(size_t part, size_t nparts,
                   std::vector<NodeIndex>* rows) const;

  // Assembles the output tuple for one row id.
  Tuple MakeRow(NodeIndex row) const;

 private:
  const MaterializedView* view_;
  SchemaPtr schema_;
  bool tag_constant_ = false;
  // Row assembly template: the constant Tag is pre-filled once; MakeRow
  // copies the prototype and overwrites only the per-row fields, which is
  // measurably cheaper than building each variant chain from scratch. A
  // slot is the column's position in the assembled tuple, -1 when dropped.
  Tuple proto_;
  int id_slot_ = -1;
  int tag_slot_ = -1;
  int val_slot_ = -1;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_VIRTUAL_SCAN_H_
