// Tag-derived collections (Def. 2.2.1): R_t / R_* over elements, R_t^α /
// R_*^α over attributes — the base relations of XAM semantics and of the
// XQuery algebraic translation. Computed against the storage-neutral
// DocumentStore interface, so every backend yields identical collections.
#ifndef ULOAD_EVAL_TAG_COLLECTIONS_H_
#define ULOAD_EVAL_TAG_COLLECTIONS_H_

#include <string>
#include <string_view>
#include <vector>

#include "algebra/relation.h"
#include "xml/document_store.h"

namespace uload {

struct TagCollectionOptions {
  // Attribute-name prefix; the collection's columns are <prefix>_ID,
  // <prefix>_Tag, <prefix>_Val, <prefix>_Cont.
  std::string prefix = "e";
  bool with_tag = true;
  bool with_val = true;
  bool with_cont = true;
  // Identifier representation materialized in the ID column.
  IdKind id_kind = IdKind::kStructural;
};

// The nodes of R_t(d) (`attributes` false) or R_t^α(d) (true), in document
// order; an empty `label` selects every element or every attribute.
std::vector<NodeIndex> CollectionRows(const DocumentStore& doc,
                                      std::string_view label,
                                      bool attributes);

// R_t(d) (elements with tag `label`), or R_*(d) when `label` is empty.
// Tuples follow document order.
NestedRelation TagCollection(const DocumentStore& doc,
                             const std::string& label,
                             const TagCollectionOptions& opts = {});

// R_t^α(d) (attributes named `name`), or R_*^α(d) when `name` is empty.
NestedRelation AttributeCollection(const DocumentStore& doc,
                                   const std::string& name,
                                   const TagCollectionOptions& opts = {});

// Identifier value of a document node under the chosen representation.
AtomicValue MakeNodeId(const DocumentStore& doc, NodeIndex n, IdKind kind);

}  // namespace uload

#endif  // ULOAD_EVAL_TAG_COLLECTIONS_H_
