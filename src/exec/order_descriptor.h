// Order descriptors (thesis §1.2.3): which attribute(s) an operator's output
// is sorted on, possibly inside nested collections (e.g. ⇃A2.A21⇂).
//
// The one order rule: orders flow forward. A leaf advertises the order its
// binder declares — a catalog view its definition's extent order
// (MaterializedView::order()), an index scan its view's, a bare relation
// what EvalContext::relations says — and never reads data to discover one.
// Each operator derives its output order from its inputs'. Structural joins
// require document-order inputs; the compiler elides a Sort_φ exactly when
// OrderCovers(input order, required) holds and otherwise establishes the
// order with SortBy.
#ifndef ULOAD_EXEC_ORDER_DESCRIPTOR_H_
#define ULOAD_EXEC_ORDER_DESCRIPTOR_H_

#include <string>
#include <vector>

#include "algebra/relation.h"
#include "common/status.h"

namespace uload {

struct OrderKey {
  std::string attr;  // dotted path
  bool ascending = true;
};

class OrderDescriptor {
 public:
  OrderDescriptor() = default;
  explicit OrderDescriptor(std::vector<OrderKey> keys)
      : keys_(std::move(keys)) {}

  static OrderDescriptor On(std::string attr) {
    return OrderDescriptor({OrderKey{std::move(attr), true}});
  }

  bool empty() const { return keys_.empty(); }
  const std::vector<OrderKey>& keys() const { return keys_; }

  std::string ToString() const;

 private:
  std::vector<OrderKey> keys_;
};

// True when `required`'s keys are a prefix of `actual`'s — the stream is
// then sorted per `required` by construction (SortBy is a stable
// lexicographic sort over its key list). Used by the compiler to elide
// Sort_φ enforcers and by the plan verifier to check order soundness.
bool OrderCovers(const OrderDescriptor& actual, const OrderDescriptor& required);

// The longest prefix of `order` whose keys resolve in `schema`: what of a
// stream's order survives when only `schema`'s columns are kept.
OrderDescriptor OrderPrefixOver(const OrderDescriptor& order,
                                const Schema& schema);

// Stable-sorts `rel`'s top-level tuples by the descriptor's keys. Keys whose
// path crosses a collection sort the *nested* collections in place (the
// ⇃A2.A21⇂ form). Null atoms order first.
Status SortBy(const OrderDescriptor& order, NestedRelation* rel);

}  // namespace uload

#endif  // ULOAD_EXEC_ORDER_DESCRIPTOR_H_
