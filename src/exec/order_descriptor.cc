#include "exec/order_descriptor.h"

#include <algorithm>

namespace uload {

std::string OrderDescriptor::ToString() const {
  std::string out = "⇃";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].attr;
    if (!keys_[i].ascending) out += " desc";
  }
  out += "⇂";
  return out;
}

namespace {

// Sorts one nesting level. `path` addresses an atomic attribute; the prefix
// up to the first collection is navigated, then recursion sorts inside.
Status SortLevel(const Schema& schema, const AttrPath& path, size_t depth,
                 bool ascending, TupleList* tuples) {
  // Find whether path[depth] is a collection (recurse) or atomic (sort here).
  const Attribute& attr = schema.attr(path[depth]);
  if (depth + 1 == path.size()) {
    if (attr.is_collection) {
      return Status::TypeError("cannot sort by collection attribute '" +
                               attr.name + "'");
    }
    std::stable_sort(tuples->begin(), tuples->end(),
                     [&](const Tuple& a, const Tuple& b) {
                       int c = AtomicValue::Compare(a.fields[path[depth]].atom(),
                                                    b.fields[path[depth]].atom());
                       return ascending ? c < 0 : c > 0;
                     });
    return Status::Ok();
  }
  if (!attr.is_collection) {
    return Status::TypeError("order path crosses atomic attribute '" +
                             attr.name + "'");
  }
  for (Tuple& t : *tuples) {
    Field& f = t.fields[path[depth]];
    if (!f.is_collection()) continue;
    ULOAD_RETURN_NOT_OK(SortLevel(*attr.nested, path, depth + 1, ascending,
                                  &f.collection()));
  }
  return Status::Ok();
}

}  // namespace

Status SortBy(const OrderDescriptor& order, NestedRelation* rel) {
  // Apply keys in reverse so the first key is the primary one (stable sort).
  for (auto it = order.keys().rbegin(); it != order.keys().rend(); ++it) {
    ULOAD_ASSIGN_OR_RETURN(AttrPath path,
                           ResolveAttrPath(rel->schema(), it->attr));
    ULOAD_RETURN_NOT_OK(SortLevel(rel->schema(), path, 0, it->ascending,
                                  &rel->mutable_tuples()));
  }
  return Status::Ok();
}

bool OrderCovers(const OrderDescriptor& actual,
                 const OrderDescriptor& required) {
  if (required.keys().size() > actual.keys().size()) return false;
  for (size_t i = 0; i < required.keys().size(); ++i) {
    if (actual.keys()[i].attr != required.keys()[i].attr ||
        actual.keys()[i].ascending != required.keys()[i].ascending) {
      return false;
    }
  }
  return true;
}

OrderDescriptor OrderPrefixOver(const OrderDescriptor& order,
                                const Schema& schema) {
  std::vector<OrderKey> kept;
  for (const OrderKey& k : order.keys()) {
    if (!ResolveAttrPath(schema, k.attr).ok()) break;
    kept.push_back(k);
  }
  return OrderDescriptor(std::move(kept));
}

}  // namespace uload
