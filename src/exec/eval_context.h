// The bindings a logical plan executes against: named base relations, the
// catalog's views, the streaming index access path and the document that
// backs navigation. The physical compiler (exec/physical.h) and the plan
// verifier (verify/plan_verifier.h) both resolve plan leaves through it.
#ifndef ULOAD_EXEC_EVAL_CONTEXT_H_
#define ULOAD_EXEC_EVAL_CONTEXT_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/relation.h"
#include "common/status.h"
#include "exec/order_descriptor.h"
#include "xml/document_store.h"

namespace uload {

class MaterializedView;  // storage/store.h

// A base relation and the order its binder declares it is stored in (empty
// = no order). The physical compiler trusts the declaration: it never reads
// the data to discover an order, and the debug-build batch validator
// (verify/batch_validator.h) checks the stream against it.
struct BoundRelation {
  BoundRelation() = default;
  BoundRelation(const NestedRelation* d, OrderDescriptor o = {})
      : data(d), order(std::move(o)) {}
  const NestedRelation* data = nullptr;
  OrderDescriptor order;
};

// Result of a streaming index binding: the view's backing relation plus the
// row indices matching the bindings, in the relation's storage order, and
// the view's declared order, which the selected rows inherit. The physical
// engine streams batches straight out of `data` by row index — no result
// relation is materialized.
struct IndexBinding {
  const NestedRelation* data = nullptr;
  std::vector<int64_t> rows;
  OrderDescriptor order;
};

struct EvalContext {
  // Named base relations (materialized views / storage structures) with
  // their declared orders. Views that run as virtual column-backed extents
  // (storage/store.h) are NOT in this map — resolve through `views` first.
  std::unordered_map<std::string, BoundRelation> relations;

  // Every catalog view by name (materialized or virtual). The physical
  // compiler routes qualifying scans straight to the columnar store through
  // this map; the verifier resolves scan and index-scan schemas from it.
  std::unordered_map<std::string, const MaterializedView*> views;

  // Index access path for kIndexScan over R-marked XAM stores: receives the
  // relation name and the equality bindings, and hands back the stored
  // relation and the matching row ids so the scan streams them directly
  // (storage/catalog.h wires this to MaterializedView::LookupRows).
  std::function<Result<IndexBinding>(
      const std::string&,
      const std::vector<std::pair<std::string, AtomicValue>>&)>
      index_bind;

  // Document store backing kNavigate (and Sid resolution); storage-neutral.
  const DocumentStore* document = nullptr;
};

}  // namespace uload

#endif  // ULOAD_EXEC_EVAL_CONTEXT_H_
