#include "verify/batch_validator.h"

namespace uload {

namespace {

Status ValidateShapeAt(const Schema& schema, const Tuple& t,
                       const std::string& at) {
  if (t.fields.size() != static_cast<size_t>(schema.size())) {
    return Status::TypeError(
        "tuple has " + std::to_string(t.fields.size()) + " fields, schema {" +
        schema.ToString() + "} expects " + std::to_string(schema.size()) +
        (at.empty() ? "" : " (at " + at + ")"));
  }
  for (int i = 0; i < schema.size(); ++i) {
    const Attribute& a = schema.attr(i);
    const Field& f = t.fields[static_cast<size_t>(i)];
    std::string here = at.empty() ? a.name : at + "." + a.name;
    if (a.is_collection != f.is_collection()) {
      return Status::TypeError(
          "attribute '" + here + "' is " +
          (a.is_collection ? "a collection" : "atomic") +
          " in the schema but the tuple field holds " +
          (f.is_collection() ? "a collection" : "an atom"));
    }
    if (f.is_collection()) {
      for (const Tuple& sub : f.collection()) {
        ULOAD_RETURN_NOT_OK(ValidateShapeAt(*a.nested, sub, here));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateTupleShape(const Schema& schema, const Tuple& t) {
  return ValidateShapeAt(schema, t, "");
}

Status ValidateBatch(const Schema& schema, const TupleBatch& batch) {
  if (&batch.schema() != &schema && !batch.schema().Equals(schema)) {
    return Status::TypeError("batch schema tag {" + batch.schema().ToString() +
                             "} does not match the operator schema {" +
                             schema.ToString() + "}");
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    Status s = ValidateTupleShape(schema, batch.tuple(i));
    if (!s.ok()) {
      return Status::TypeError("tuple " + std::to_string(i) + ": " +
                               s.message());
    }
  }
  return Status::Ok();
}

Status ValidateBatchOrder(const OrderDescriptor& order, const TupleBatch& batch,
                          std::vector<AtomicValue>* tail) {
  std::vector<int> cols;
  for (const OrderKey& k : order.keys()) {
    const int c = batch.schema().IndexOf(k.attr);
    if (c < 0 || batch.schema().attr(c).is_collection) break;
    cols.push_back(c);
  }
  if (cols.empty() || batch.empty()) return Status::Ok();
  // The first key where `t` differs from its predecessor `prev` (given by
  // key position) decides: it must not sort before it.
  auto check = [&](size_t i, auto&& prev) -> Status {
    const Tuple& t = batch.tuple(i);
    for (size_t k = 0; k < cols.size(); ++k) {
      int c = AtomicValue::Compare(prev(k), t.fields[cols[k]].atom());
      if (!order.keys()[k].ascending) c = -c;
      if (c < 0) return Status::Ok();
      if (c > 0) {
        return Status::TypeError(
            "tuple " + std::to_string(i) + " breaks the advertised order " +
            order.ToString() + ": " + order.keys()[k].attr + " " +
            t.fields[cols[k]].atom().ToString() + " follows " +
            prev(k).ToString());
      }
    }
    return Status::Ok();
  };
  if (tail->size() == cols.size()) {
    ULOAD_RETURN_NOT_OK(
        check(0, [&](size_t k) -> const AtomicValue& { return (*tail)[k]; }));
  }
  for (size_t i = 1; i < batch.size(); ++i) {
    const Tuple& prev = batch.tuple(i - 1);
    ULOAD_RETURN_NOT_OK(check(i, [&](size_t k) -> const AtomicValue& {
      return prev.fields[cols[k]].atom();
    }));
  }
  const Tuple& last = batch.tuple(batch.size() - 1);
  tail->clear();
  for (int c : cols) tail->push_back(last.fields[c].atom());
  return Status::Ok();
}

}  // namespace uload
