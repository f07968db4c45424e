// Order descriptors (thesis §1.2.3): which attribute(s) an operator's output
// is sorted on, possibly inside nested collections (e.g. ⇃A2.A21⇂).
// Structural join operators require document-order inputs; Sort_φ uses
// SortBy to establish the required order, and scans use IsSortedBy to prove
// that their stored order already holds.
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

// Stable-sorts `rel`'s top-level tuples by the descriptor's keys. Keys whose
// path crosses a collection sort the *nested* collections in place (the
// ⇃A2.A21⇂ form). Null atoms order first.
Status SortBy(const OrderDescriptor& order, NestedRelation* rel);

// True if `rel` is already sorted per `order` (top-level keys only must be
// non-nested; nested keys check each nested collection).
Result<bool> IsSortedBy(const OrderDescriptor& order,
                        const NestedRelation& rel);

}  // namespace uload

#endif  // ULOAD_EXEC_ORDER_DESCRIPTOR_H_
