// Row access for virtual column-backed extents (storage/store.h).
//
// A virtualized view has no materialized relation: its tuples are assembled
// on the fly from the ColumnarDocument's columns, guided by the view's
// compressed row-id set. ColumnarRowReader decodes that row set and
// assembles tuples; FusedPipeline_φ's columnar source (exec/fusion.h) loops
// over the decoded rows. Scan and order contract are those of a
// materialized extent: the source advertises the view's declared order
// (MaterializedView::order()), the same for a stored and a virtual extent —
// physically different access paths, one logical leaf.
#ifndef ULOAD_STORAGE_VIRTUAL_SCAN_H_
#define ULOAD_STORAGE_VIRTUAL_SCAN_H_

#include <optional>
#include <vector>

#include "storage/store.h"

namespace uload {

// Row-set decoding and tuple assembly for one virtual column-backed
// extent. Stateless across rows: Decode materializes the row ids, MakeRow
// assembles one output tuple from the backing columns.
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

  // Decodes the compressed rowset into *rows, in document order.
  void Decode(std::vector<NodeIndex>* rows) const;

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
