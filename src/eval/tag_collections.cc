#include "eval/tag_collections.h"

namespace uload {
namespace {

NestedRelation Collect(const DocumentStore& doc, const std::string& label,
                       bool attributes, const TagCollectionOptions& opts) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Atomic(opts.prefix + "_ID"));
  if (opts.with_tag) attrs.push_back(Attribute::Atomic(opts.prefix + "_Tag"));
  if (opts.with_val) attrs.push_back(Attribute::Atomic(opts.prefix + "_Val"));
  if (opts.with_cont) {
    attrs.push_back(Attribute::Atomic(opts.prefix + "_Cont"));
  }
  NestedRelation out(Schema::Make(std::move(attrs)), CollectionKind::kList);
  for (NodeIndex i : CollectionRows(doc, label, attributes)) {
    Tuple t;
    t.fields.emplace_back(MakeNodeId(doc, i, opts.id_kind));
    if (opts.with_tag) {
      t.fields.emplace_back(AtomicValue::String(std::string(doc.label(i))));
    }
    if (opts.with_val) {
      t.fields.emplace_back(AtomicValue::String(doc.Value(i)));
    }
    if (opts.with_cont) {
      t.fields.emplace_back(AtomicValue::String(doc.Content(i)));
    }
    out.Add(std::move(t));
  }
  return out;
}

}  // namespace

std::vector<NodeIndex> CollectionRows(const DocumentStore& doc,
                                      std::string_view label,
                                      bool attributes) {
  const NodeKind kind = attributes ? NodeKind::kAttribute : NodeKind::kElement;
  std::vector<NodeIndex> rows;
  const int64_t n = doc.size();
  for (NodeIndex i = 1; i < n; ++i) {
    if (doc.kind(i) != kind) continue;
    if (!label.empty() && doc.label(i) != label) continue;
    rows.push_back(i);
  }
  return rows;
}

AtomicValue MakeNodeId(const DocumentStore& doc, NodeIndex n, IdKind kind) {
  if (kind == IdKind::kParental) {
    return AtomicValue::Dewey(doc.Dewey(n));
  }
  // Simple/ordered identifiers are physically materialized as the (pre,
  // post, depth) triple too; the XAM's IdKind governs what the *optimizer*
  // may assume about them, not the bytes on disk.
  return AtomicValue::Sid(doc.sid(n));
}

NestedRelation TagCollection(const DocumentStore& doc,
                             const std::string& label,
                             const TagCollectionOptions& opts) {
  return Collect(doc, label, /*attributes=*/false, opts);
}

NestedRelation AttributeCollection(const DocumentStore& doc,
                                   const std::string& name,
                                   const TagCollectionOptions& opts) {
  return Collect(doc, name, /*attributes=*/true, opts);
}

}  // namespace uload
