#include "storage/virtual_scan.h"

#include <algorithm>

#include "eval/tag_collections.h"
#include "storage/columnar/varint.h"

namespace uload {

ColumnarRowReader::ColumnarRowReader(
    const MaterializedView* view, const std::optional<std::vector<int>>& keep)
    : view_(view) {
  // Whether the Tag column is a constant (non-wildcard collection): the
  // qualifying XAM shape is ⊤ with exactly one child, so the child node's
  // tag spells it out.
  const Xam& xam = view_->definition();
  const XamNode& n = xam.node(xam.node(kXamRoot).edges[0].child);
  tag_constant_ = n.stores_tag && !n.is_wildcard();
  // The stored layout is ID, then Tag and Val when the view stores them.
  const int stored_tag = n.stores_tag ? 1 : -1;
  const int stored_val = n.stores_val ? (n.stores_tag ? 2 : 1) : -1;
  const Schema& stored = *view_->schema();
  std::vector<Attribute> attrs;
  auto place = [&](int column) {
    if (column < 0) return -1;
    if (keep.has_value() &&
        std::find(keep->begin(), keep->end(), column) == keep->end()) {
      return -1;
    }
    attrs.push_back(stored.attr(column));
    return static_cast<int>(attrs.size()) - 1;
  };
  id_slot_ = place(0);
  tag_slot_ = place(stored_tag);
  val_slot_ = place(stored_val);
  // Assemble the prototype row once. The gate rejects parental ids, so the
  // ID field is always a (pre, post, depth) triple; a constant Tag never
  // changes after this.
  proto_.fields.resize(attrs.size());
  schema_ = keep.has_value() ? Schema::Make(std::move(attrs)) : view_->schema();
  if (id_slot_ >= 0) {
    proto_.fields[id_slot_].atom() = AtomicValue::Sid(StructuralId{});
  }
  if (tag_slot_ >= 0) {
    // Attribute tags drop the '@' sigil, mirroring what label() stores.
    std::string const_tag;
    if (tag_constant_) {
      const_tag = n.is_attribute ? n.tag_value.substr(1) : n.tag_value;
    }
    proto_.fields[tag_slot_].atom() = AtomicValue::String(std::move(const_tag));
  }
  if (val_slot_ >= 0) {
    proto_.fields[val_slot_].atom() = AtomicValue::String(std::string());
  }
}

void ColumnarRowReader::Decode(std::vector<NodeIndex>* rows) const {
  const std::string& rowset = view_->rowset();
  DeltaVarintReader reader(reinterpret_cast<const uint8_t*>(rowset.data()),
                           rowset.size());
  const size_t n = static_cast<size_t>(view_->row_count());
  rows->clear();
  rows->reserve(n);
  uint64_t v = 0;
  for (size_t i = 0; i < n && reader.Next(&v); ++i) {
    rows->push_back(static_cast<NodeIndex>(v));
  }
}

Tuple ColumnarRowReader::MakeRow(NodeIndex row) const {
  const ColumnarDocument& doc = *view_->virtual_store();
  Tuple t = proto_;
  if (id_slot_ >= 0) t.fields[id_slot_].atom() = AtomicValue::Sid(doc.sid(row));
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

}  // namespace uload
