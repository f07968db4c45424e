#include "storage/store.h"

#include <utility>

#include "eval/tag_collections.h"
#include "storage/columnar/varint.h"

namespace uload {
namespace {

std::string KeyOf(const Tuple& t, const std::vector<int>& attrs) {
  std::string key;
  for (int a : attrs) {
    key += t.fields[a].atom().ToString();
    key += '\x1f';
  }
  return key;
}

int64_t TupleBytes(const Tuple& t) {
  int64_t bytes = 0;
  for (const Field& f : t.fields) {
    if (f.is_collection()) {
      for (const Tuple& sub : f.collection()) bytes += TupleBytes(sub);
    } else {
      const AtomicValue& v = f.atom();
      if (v.is_string()) {
        bytes += static_cast<int64_t>(v.as_string().size());
      } else {
        bytes += 12;  // id triple / number
      }
    }
  }
  return bytes;
}

}  // namespace

bool QualifiesAsVirtualExtent(const Xam& xam) {
  const XamNode& top = xam.node(kXamRoot);
  if (top.edges.size() != 1) return false;
  const XamEdge& e = top.edges[0];
  // `/` under ⊤ restricts to the document root element — a filter the plain
  // chunk scan does not apply; semijoin/nesting change the shape.
  if (e.axis != Axis::kDescendant || e.semi() || e.nested()) return false;
  const XamNode& n = xam.node(e.child);
  if (!n.edges.empty()) return false;           // structural predicates
  if (!n.val_formula.IsTrue()) return false;    // value predicates
  if (xam.HasRequired()) return false;          // needs the access index
  if (!n.stores_id) return false;               // dedup could collapse rows
  if (n.id_kind == IdKind::kParental) return false;
  if (n.stores_cont) return false;              // Cont needs serialization
  return true;
}

Result<MaterializedView> MaterializedView::Materialize(
    std::string name, Xam definition, const DocumentStore& doc) {
  MaterializedView v;
  v.name_ = std::move(name);
  v.definition_ = std::move(definition);
  v.schema_ = v.definition_.ViewSchema();
  v.doc_ = &doc;

  const auto* columnar = dynamic_cast<const ColumnarDocument*>(&doc);
  if (columnar != nullptr && QualifiesAsVirtualExtent(v.definition_)) {
    // Virtual extent: record the matching rows (document order) as a
    // delta+varint list; scans stream the columns directly.
    const XamNode& n =
        v.definition_.node(v.definition_.node(kXamRoot).edges[0].child);
    v.columnar_ = columnar;
    v.emit_tag_ = n.stores_tag;
    v.emit_val_ = n.stores_val;
    v.id_kind_ = n.id_kind;
    const bool attributes = n.is_attribute;
    const std::string label =
        attributes ? (n.tag_value.empty() ? "" : n.tag_value.substr(1))
                   : n.tag_value;
    std::vector<NodeIndex> rows;
    bool values_cheap = true;
    const int64_t size = columnar->size();
    for (NodeIndex i = 1; i < size; ++i) {
      NodeKind k = columnar->kind(i);
      if (attributes ? k != NodeKind::kAttribute : k != NodeKind::kElement) {
        continue;
      }
      if (!label.empty() && columnar->label(i) != label) continue;
      if (v.emit_val_ && !columnar->cheap_value(i)) values_cheap = false;
      rows.push_back(i);
    }
    // A Val-emitting extent stays virtual only if every row's value is
    // dictionary-backed (leaf elements, attributes). Interior elements
    // would pay an O(subtree) text walk per tuple on every scan — there,
    // materializing once is the cheaper physical design.
    if (values_cheap) {
      v.rowset_rows_ = static_cast<int64_t>(rows.size());
      PutDeltaVarints(rows, &v.rowset_);
      return v;
    }
    v.columnar_ = nullptr;
  }

  ULOAD_ASSIGN_OR_RETURN(v.data_, EvaluateXam(v.definition_, doc));
  v.materialized_.v.store(true, std::memory_order_release);

  // Build the index over required *top-level* attributes.
  const Schema& schema = v.data_.schema();
  for (XamNodeId id = 1; id < v.definition_.size(); ++id) {
    const XamNode& n = v.definition_.node(id);
    auto add = [&](const std::string& suffix) {
      int idx = schema.IndexOf(n.name + suffix);
      if (idx >= 0 && !schema.attr(idx).is_collection) {
        v.index_attrs_.push_back(idx);
      }
    };
    if (n.id_required) add("_ID");
    if (n.tag_required) add("_Tag");
    if (n.val_required) add("_Val");
  }
  if (!v.index_attrs_.empty()) {
    for (int64_t i = 0; i < v.data_.size(); ++i) {
      v.index_[KeyOf(v.data_.tuple(i), v.index_attrs_)].push_back(i);
    }
  }
  return v;
}

std::vector<NodeIndex> MaterializedView::VirtualRows() const {
  std::vector<NodeIndex> rows;
  rows.reserve(static_cast<size_t>(rowset_rows_));
  DeltaVarintReader reader(reinterpret_cast<const uint8_t*>(rowset_.data()),
                           rowset_.size());
  uint64_t row = 0;
  for (int64_t i = 0; i < rowset_rows_; ++i) {
    if (!reader.Next(&row)) break;  // unreachable: we encoded it ourselves
    rows.push_back(static_cast<NodeIndex>(row));
  }
  return rows;
}

void MaterializedView::MaterializeNow() const {
  MutexLock lock(&data_mu_);
  // Another thread may have materialized between our acquire-load and the
  // lock; relaxed suffices under the mutex.
  if (materialized_.v.load(std::memory_order_relaxed)) return;
  MaterializeLocked();
}

void MaterializedView::MaterializeLocked() const {
  // Build the extent straight from the row set: tuples are exactly what
  // EvaluateXam produces for a qualifying XAM (ID first, then Tag/Val),
  // already deduplicated (IDs are unique) and in document order.
  NestedRelation out(schema_, CollectionKind::kList);
  for (NodeIndex i : VirtualRows()) {
    Tuple t;
    t.fields.emplace_back(MakeNodeId(*columnar_, i, id_kind_));
    if (emit_tag_) {
      t.fields.emplace_back(
          AtomicValue::String(std::string(columnar_->label(i))));
    }
    if (emit_val_) {
      t.fields.emplace_back(AtomicValue::String(columnar_->Value(i)));
    }
    out.Add(std::move(t));
  }
  data_ = std::move(out);
  materialized_.v.store(true, std::memory_order_release);
}

const NestedRelation& MaterializedView::data() const {
  if (!materialized_.v.load(std::memory_order_acquire)) MaterializeNow();
  return data_;
}

int64_t MaterializedView::row_count() const {
  if (columnar_ != nullptr) return rowset_rows_;
  return data_.size();
}

Result<std::vector<int64_t>> MaterializedView::LookupRows(
    const std::vector<std::pair<std::string, AtomicValue>>& bindings) const {
  const NestedRelation& d = data();
  // Fast path: bindings cover exactly the indexed attributes.
  if (!index_attrs_.empty() && bindings.size() == index_attrs_.size()) {
    std::vector<AtomicValue> key_vals(index_attrs_.size());
    bool exact = true;
    for (const auto& [attr, val] : bindings) {
      int idx = d.schema().IndexOf(attr);
      bool placed = false;
      for (size_t k = 0; k < index_attrs_.size(); ++k) {
        if (index_attrs_[k] == idx) {
          key_vals[k] = val;
          placed = true;
          break;
        }
      }
      if (!placed) {
        exact = false;
        break;
      }
    }
    if (exact) {
      std::string key;
      for (const AtomicValue& v : key_vals) {
        key += v.ToString();
        key += '\x1f';
      }
      auto it = index_.find(key);
      if (it == index_.end()) return std::vector<int64_t>{};
      return it->second;  // built by an ascending scan: storage order
    }
  }
  // Generic path: scan with equality filtering (nested attributes use
  // existential matching).
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < d.size(); ++i) {
    const Tuple& t = d.tuple(i);
    bool keep = true;
    for (const auto& [attr, val] : bindings) {
      auto path = ResolveAttrPath(d.schema(), attr);
      if (!path.ok()) return path.status();
      std::vector<AtomicValue> atoms;
      CollectAtomsAt(t, d.schema(), *path, 0, &atoms);
      bool any = false;
      for (const AtomicValue& a : atoms) {
        if (a == val) {
          any = true;
          break;
        }
      }
      if (!any) {
        keep = false;
        break;
      }
    }
    if (keep) rows.push_back(i);
  }
  return rows;
}

MaterializedView::StorageBytes MaterializedView::ApproximateBytesBreakdown()
    const {
  StorageBytes b;
  b.virtualized = columnar_ != nullptr;
  b.rowset_bytes = static_cast<int64_t>(rowset_.size());
  if (!b.virtualized) {
    // A lazily materialized virtual extent is a cache over the shared column
    // store, not storage — count tuple payloads for real views only.
    for (const Tuple& t : data_.tuples()) b.data_bytes += TupleBytes(t);
  }
  for (const auto& [key, rows] : index_) {
    b.index_bytes += static_cast<int64_t>(key.size()) + 16 +
                     static_cast<int64_t>(rows.size()) * 8;
  }
  return b;
}

int64_t MaterializedView::ApproximateBytes() const {
  StorageBytes b = ApproximateBytesBreakdown();
  return b.data_bytes + b.index_bytes + b.rowset_bytes;
}

}  // namespace uload
