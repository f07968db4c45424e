// The catalog of persistent storage structures: the set of XAMs (and their
// materializations) the optimizer knows about. Changing the storage means
// changing this set only — the physical-data-independence contract.
#ifndef ULOAD_STORAGE_CATALOG_H_
#define ULOAD_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/eval_context.h"
#include "storage/store.h"

namespace uload {

class Catalog {
 public:
  Status Add(MaterializedView view);
  // Defines and materializes (or virtualizes, over a columnar store) in one
  // step.
  Status AddXam(std::string name, Xam definition, const DocumentStore& doc);

  const MaterializedView* Find(const std::string& name) const;
  const std::vector<std::unique_ptr<MaterializedView>>& views() const {
    return views_;
  }

  // Evaluation context binding every view by name: materialized views bind
  // their data into `relations`; virtual column-backed extents appear only
  // in `views` (the physical compiler streams them off the columnar store).
  // R-marked views are reached through `index_bind`, which hands out the
  // stored relation and the matching row ids, and `doc` backs Navigate
  // operators.
  EvalContext MakeEvalContext(const DocumentStore* doc) const;

  int64_t TotalBytes() const;

 private:
  std::vector<std::unique_ptr<MaterializedView>> views_;
};

}  // namespace uload

#endif  // ULOAD_STORAGE_CATALOG_H_
