#include "storage/store.h"

#include <algorithm>
#include <utility>

#include "eval/tag_collections.h"
#include "storage/columnar/varint.h"

namespace uload {
namespace {

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
  // row-set scan does not apply; semijoin/nesting change the shape.
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
  v.order_ = ExtentOrder(v.definition_);

  const auto* columnar = dynamic_cast<const ColumnarDocument*>(&doc);
  if (columnar != nullptr && QualifiesAsVirtualExtent(v.definition_)) {
    // Virtual extent: record the matching rows (document order) as a
    // delta+varint list; scans stream the columns directly.
    const XamNode& n =
        v.definition_.node(v.definition_.node(kXamRoot).edges[0].child);
    std::string_view label = n.tag_value;
    if (n.is_attribute && !label.empty()) label.remove_prefix(1);  // '@'
    std::vector<NodeIndex> rows =
        CollectionRows(*columnar, label, n.is_attribute);
    // A Val-emitting extent stays virtual only if every row's value is
    // dictionary-backed (leaf elements, attributes). Interior elements
    // would pay an O(subtree) text walk per tuple on every scan — there,
    // materializing once is the cheaper physical design.
    if (!n.stores_val ||
        std::all_of(rows.begin(), rows.end(), [&](NodeIndex i) {
          return columnar->cheap_value(i);
        })) {
      v.data_ = NestedRelation(v.schema_);
      v.columnar_ = columnar;
      v.rowset_rows_ = static_cast<int64_t>(rows.size());
      PutDeltaVarints(rows, &v.rowset_);
      return v;
    }
  }

  ULOAD_ASSIGN_OR_RETURN(v.data_, EvaluateXam(v.definition_, doc));

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
      std::string key;
      for (int a : v.index_attrs_) {
        AppendEqualityKey(v.data_.tuple(i).fields[a].atom(), &key);
      }
      v.index_[key].push_back(i);
    }
  }
  return v;
}

Result<std::vector<int64_t>> MaterializedView::LookupRows(
    const std::vector<std::pair<std::string, AtomicValue>>& bindings) const {
  const NestedRelation& d = data_;
  std::vector<AttrPath> paths;
  for (const auto& [attr, val] : bindings) {
    ULOAD_ASSIGN_OR_RETURN(AttrPath p, ResolveAttrPath(d.schema(), attr));
    paths.push_back(std::move(p));
  }
  // The hash index narrows the candidates when the bindings cover exactly
  // the indexed top-level attributes; otherwise every row is a candidate.
  const std::vector<int64_t>* bucket = nullptr;
  if (!index_attrs_.empty() && bindings.size() == index_attrs_.size()) {
    std::vector<const AtomicValue*> key_vals(index_attrs_.size(), nullptr);
    for (size_t b = 0; b < bindings.size(); ++b) {
      for (size_t k = 0; k < index_attrs_.size(); ++k) {
        if (paths[b].size() == 1 && paths[b][0] == index_attrs_[k]) {
          key_vals[k] = &bindings[b].second;
        }
      }
    }
    if (std::find(key_vals.begin(), key_vals.end(), nullptr) ==
        key_vals.end()) {
      std::string key;
      for (const AtomicValue* v : key_vals) AppendEqualityKey(*v, &key);
      auto it = index_.find(key);
      if (it == index_.end()) return std::vector<int64_t>{};
      bucket = &it->second;  // built by an ascending scan: storage order
    }
  }
  // operator== decides each candidate (nested attributes match
  // existentially).
  std::vector<int64_t> rows;
  const int64_t n = bucket != nullptr ? static_cast<int64_t>(bucket->size())
                                      : d.size();
  for (int64_t c = 0; c < n; ++c) {
    const int64_t i = bucket != nullptr ? (*bucket)[c] : c;
    const Tuple& t = d.tuple(i);
    bool keep = true;
    for (size_t b = 0; b < bindings.size() && keep; ++b) {
      std::vector<AtomicValue> atoms;
      CollectAtomsAt(t, d.schema(), paths[b], 0, &atoms);
      keep = std::find(atoms.begin(), atoms.end(), bindings[b].second) !=
             atoms.end();
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
  for (const Tuple& t : data_.tuples()) b.data_bytes += TupleBytes(t);
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
