#include "storage/virtual_scan.h"

#include "eval/tag_collections.h"
#include "storage/columnar/varint.h"

namespace uload {

ColumnarRowReader::ColumnarRowReader(const MaterializedView* view)
    : view_(view) {
  schema_ = view_->schema();
  // Whether the Tag column is a constant (non-wildcard collection): the
  // qualifying XAM shape is ⊤ with exactly one child, so the child node's
  // tag spells it out.
  const Xam& xam = view_->definition();
  const XamNode& n = xam.node(xam.node(kXamRoot).edges[0].child);
  tag_constant_ = view_->emit_tag() && !n.is_wildcard();
  // Assemble the prototype row once. The gate rejects parental ids, so the
  // ID field is always a (pre, post, depth) triple; a constant Tag never
  // changes after this.
  proto_.fields.emplace_back(AtomicValue::Sid(StructuralId{}));
  if (view_->emit_tag()) {
    tag_slot_ = static_cast<int>(proto_.fields.size());
    // Attribute tags drop the '@' sigil, mirroring what label() stores.
    std::string const_tag;
    if (tag_constant_) {
      const_tag = n.is_attribute ? n.tag_value.substr(1) : n.tag_value;
    }
    proto_.fields.emplace_back(AtomicValue::String(std::move(const_tag)));
  }
  if (view_->emit_val()) {
    val_slot_ = static_cast<int>(proto_.fields.size());
    proto_.fields.emplace_back(AtomicValue::String(std::string()));
  }
}

bool ColumnarRowReader::Satisfies(const OrderDescriptor& order) const {
  for (const OrderKey& k : order.keys()) {
    int idx = schema_->IndexOf(k.attr);
    if (idx < 0) return false;
    if (idx == 0) {
      // The ID column: rows stream in ascending pre order.
      if (!k.ascending) return false;
    } else if (idx == 1 && tag_constant_) {
      // Constant column: trivially sorted in either direction.
    } else {
      return false;
    }
  }
  return true;
}

void ColumnarRowReader::DecodeSlice(size_t part, size_t nparts,
                                    std::vector<NodeIndex>* rows) const {
  const size_t n = static_cast<size_t>(view_->row_count());
  const size_t begin = part * n / nparts;
  const size_t stop = (part + 1) * n / nparts;
  const std::string& rowset = view_->rowset();
  DeltaVarintReader reader(reinterpret_cast<const uint8_t*>(rowset.data()),
                           rowset.size());
  rows->clear();
  rows->reserve(stop - begin);
  uint64_t v = 0;
  for (size_t i = 0; i < stop && reader.Next(&v); ++i) {
    if (i >= begin) rows->push_back(static_cast<NodeIndex>(v));
  }
}

Tuple ColumnarRowReader::MakeRow(NodeIndex row) const {
  const ColumnarDocument& doc = *view_->virtual_store();
  Tuple t = proto_;
  t.fields[0].atom() = AtomicValue::Sid(doc.sid(row));
  if (tag_slot_ >= 0 && !tag_constant_) {
    std::string_view tag = doc.label(row);
    t.fields[tag_slot_].atom() =
        AtomicValue::String(std::string(tag.data(), tag.size()));
  }
  if (val_slot_ >= 0) {
    // The virtualization gate admits only rows whose value is dictionary
    // backed (attributes and leaf elements), so the raw dictionary slot IS
    // the value — skip the generic Value() subtree machinery.
    std::string_view v = doc.raw_value(row);
    t.fields[val_slot_].atom() =
        AtomicValue::String(std::string(v.data(), v.size()));
  }
  return t;
}

ColumnarParallelScanPhys::ColumnarParallelScanPhys(
    const MaterializedView* view, std::string name, size_t part,
    size_t nparts)
    : reader_(view), name_(std::move(name)), part_(part), nparts_(nparts) {}

std::string ColumnarParallelScanPhys::label() const {
  return "ColumnarParallelScan_phi(" + name_ + " " +
         std::to_string(part_ + 1) + "/" + std::to_string(nparts_) + ")";
}

bool ColumnarParallelScanPhys::TryAdoptOrder(const OrderDescriptor& order) {
  if (!reader_.Satisfies(order)) return false;
  order_ = order;
  return true;
}

Status ColumnarParallelScanPhys::OpenImpl() {
  reader_.DecodeSlice(part_, nparts_, &rows_);
  pos_ = 0;
  return ChargeMemory(static_cast<int64_t>(rows_.size() * sizeof(NodeIndex)));
}

Result<std::optional<TupleBatch>> ColumnarParallelScanPhys::NextBatchImpl() {
  if (pos_ >= rows_.size()) return std::optional<TupleBatch>();
  TupleBatch out = NewBatch();
  while (pos_ < rows_.size() && !out.full()) {
    out.Add(reader_.MakeRow(rows_[pos_++]));
  }
  return std::optional<TupleBatch>(std::move(out));
}

void ColumnarParallelScanPhys::CloseImpl() {
  rows_.clear();
  rows_.shrink_to_fit();
}

}  // namespace uload
