// TupleBatch: the unit of data flow in the batch-at-a-time physical engine.
//
// A batch is a schema-tagged, fixed-target-capacity run of tuples. Operators
// produce up to `capacity()` tuples per NextBatch() call so the per-call
// costs (virtual dispatch, timing, bookkeeping) amortize over many tuples.
// The capacity is a fill target, not a hard limit: Add() never fails, so an
// operator that maps an input batch 1:1 cannot overflow its output batch
// even if the two were configured with different sizes.
#ifndef ULOAD_ALGEBRA_TUPLE_BATCH_H_
#define ULOAD_ALGEBRA_TUPLE_BATCH_H_

#include <cstddef>

#include "algebra/schema.h"
#include "algebra/tuple.h"

namespace uload {

class TupleBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  TupleBatch() : TupleBatch(Schema::Make({})) {}
  explicit TupleBatch(SchemaPtr schema, size_t capacity = kDefaultCapacity);

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }
  // Re-tags the batch (metadata-only operators: rename, union).
  void set_schema(SchemaPtr schema) { schema_ = std::move(schema); }

  size_t capacity() const { return capacity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  // True once the fill target is reached; producers should hand the batch
  // downstream at this point.
  bool full() const { return tuples_.size() >= capacity_; }

  void Add(Tuple t) { tuples_.push_back(std::move(t)); }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  Tuple& tuple(size_t i) { return tuples_[i]; }
  const TupleList& tuples() const { return tuples_; }
  TupleList& tuples() { return tuples_; }

  // Rough heap footprint (see ApproxTupleBytes) for memory accounting.
  int64_t ApproxBytes() const { return ApproxTupleListBytes(tuples_); }

 private:
  SchemaPtr schema_;
  size_t capacity_;
  TupleList tuples_;
};

}  // namespace uload

#endif  // ULOAD_ALGEBRA_TUPLE_BATCH_H_
