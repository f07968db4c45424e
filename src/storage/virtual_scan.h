// Physical scans over virtual column-backed extents (storage/store.h).
//
// A virtualized view has no materialized relation: its tuples are assembled
// on the fly from the ColumnarDocument's columns, guided by the view's
// compressed row-id set. Serial scans run as the columnar source of a
// FusedPipeline_φ (exec/fusion.h), which loops over the decoded rows
// directly. ColumnarParallelScanPhys slices the row set into contiguous
// ranges exactly like ParallelScan_φ (part*n/nparts), so worker streams stay
// disjoint and locally ordered in document order and ExchangeMerge
// reproduces the serial tuple sequence. It reports the generic ParallelScan
// operator kind — the plan verifier's placement and order rules apply
// unchanged, which is the point: physically different access paths, same
// logical contract.
//
// ColumnarRowReader is the operator-independent core — row-set decoding,
// tuple assembly, order adoption — shared by both.
#ifndef ULOAD_STORAGE_VIRTUAL_SCAN_H_
#define ULOAD_STORAGE_VIRTUAL_SCAN_H_

#include <string>
#include <vector>

#include "exec/physical.h"
#include "storage/store.h"

namespace uload {

// Row-set decoding, tuple assembly and order adoption for one virtual
// column-backed extent. Stateless across rows: DecodeSlice materializes a
// contiguous row-id range, MakeRow assembles one output tuple from the
// backing columns.
class ColumnarRowReader {
 public:
  explicit ColumnarRowReader(const MaterializedView* view);

  const MaterializedView* view() const { return view_; }
  const SchemaPtr& schema() const { return schema_; }

  // Whether the extent can prove `order` from its physical layout: the ID
  // column streams in strictly ascending document (pre) order; a
  // constant-tag view satisfies any order on its Tag column trivially. Val
  // keys are never provable — callers fall back to a Sort_φ enforcer, which
  // is a no-op rewrite when the data happens to be sorted already, so
  // results stay identical to the materialized backend either way.
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
  // measurably cheaper than building each variant chain from scratch.
  Tuple proto_;
  int val_slot_ = -1;
  int tag_slot_ = -1;
};

// ParallelScan_φ over the `part`-th of `nparts` contiguous slices of a
// virtual extent's row set.
class ColumnarParallelScanPhys final : public PhysicalOperator {
 public:
  ColumnarParallelScanPhys(const MaterializedView* view, std::string name,
                           size_t part, size_t nparts);

  const SchemaPtr& schema() const override { return reader_.schema(); }
  const OrderDescriptor& order() const override { return order_; }
  std::string label() const override;
  PhysOpKind kind() const override { return PhysOpKind::kParallelScan; }
  bool TryAdoptOrder(const OrderDescriptor& order) override;

 protected:
  Status OpenImpl() override;
  Result<std::optional<TupleBatch>> NextBatchImpl() override;
  void CloseImpl() override;

 private:
  ColumnarRowReader reader_;
  std::string name_;
  size_t part_;
  size_t nparts_;
  OrderDescriptor order_;

  std::vector<NodeIndex> rows_;
  size_t pos_ = 0;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_VIRTUAL_SCAN_H_
