#include "storage/catalog.h"

namespace uload {

Status Catalog::Add(MaterializedView view) {
  if (Find(view.name()) != nullptr) {
    return Status::InvalidArgument("duplicate view name '" + view.name() +
                                   "'");
  }
  views_.push_back(std::make_unique<MaterializedView>(std::move(view)));
  return Status::Ok();
}

Status Catalog::AddXam(std::string name, Xam definition,
                       const DocumentStore& doc) {
  ULOAD_ASSIGN_OR_RETURN(
      MaterializedView v,
      MaterializedView::Materialize(std::move(name), std::move(definition),
                                    doc));
  return Add(std::move(v));
}

const MaterializedView* Catalog::Find(const std::string& name) const {
  for (const auto& v : views_) {
    if (v->name() == name) return v.get();
  }
  return nullptr;
}

EvalContext Catalog::MakeEvalContext(const DocumentStore* doc) const {
  EvalContext ctx;
  for (const auto& v : views_) {
    ctx.views.emplace(v->name(), v.get());
    // Virtual extents store no tuples; scans stream them off the columns.
    if (v->virtual_store() == nullptr) {
      ctx.relations.emplace(v->name(), BoundRelation(&v->data(), v->order()));
    }
  }
  ctx.document = doc;
  // The view's stored relation plus matching row ids, no intermediate
  // materialization.
  ctx.index_bind =
      [this](const std::string& name,
             const std::vector<std::pair<std::string, AtomicValue>>& bindings)
      -> Result<IndexBinding> {
    const MaterializedView* v = Find(name);
    if (v == nullptr) {
      return Status::NotFound("no view named '" + name + "'");
    }
    ULOAD_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                           v->LookupRows(bindings));
    return IndexBinding{&v->data(), std::move(rows), v->order()};
  };
  return ctx;
}

int64_t Catalog::TotalBytes() const {
  int64_t total = 0;
  for (const auto& v : views_) total += v->ApproximateBytes();
  return total;
}

}  // namespace uload
