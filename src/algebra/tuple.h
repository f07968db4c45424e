// Nested tuples: each field is either an atomic value or a collection of
// tuples (alternating nesting, thesis §1.2.2).
#ifndef ULOAD_ALGEBRA_TUPLE_H_
#define ULOAD_ALGEBRA_TUPLE_H_

#include <string>
#include <variant>
#include <vector>

#include "algebra/schema.h"
#include "algebra/value.h"

namespace uload {

struct Tuple;
using TupleList = std::vector<Tuple>;

class Field {
 public:
  Field() : v_(AtomicValue::Null()) {}
  explicit Field(AtomicValue atom) : v_(std::move(atom)) {}
  explicit Field(TupleList coll) : v_(std::move(coll)) {}

  bool is_collection() const { return v_.index() == 1; }
  const AtomicValue& atom() const { return std::get<AtomicValue>(v_); }
  AtomicValue& atom() { return std::get<AtomicValue>(v_); }
  const TupleList& collection() const { return std::get<TupleList>(v_); }
  TupleList& collection() { return std::get<TupleList>(v_); }

 private:
  std::variant<AtomicValue, TupleList> v_;
};

struct Tuple {
  std::vector<Field> fields;

  Tuple() = default;
  explicit Tuple(std::vector<Field> f) : fields(std::move(f)) {}
};

// Deep comparison: atoms by AtomicValue::Compare, collections element-wise
// then by size. Returns <0, 0, >0.
int CompareTuples(const Tuple& a, const Tuple& b);
bool TuplesEqual(const Tuple& a, const Tuple& b);

// Tuple concatenation (the || operator of Def. 1.2.1).
Tuple ConcatTuples(const Tuple& a, const Tuple& b);

// All-null tuple matching `schema` (⊥_S in the outerjoin definitions):
// atomic fields are null, collection fields are empty.
Tuple NullTuple(const Schema& schema);

// Existential retrieval: collects every atomic value reachable along `path`,
// descending into collections (the map-extension semantics of σ).
void CollectAtomsAt(const Tuple& t, const Schema& schema, const AttrPath& path,
                    size_t depth, std::vector<AtomicValue>* out);

// Debug rendering "( v1, [ (..) (..) ], v2 )".
std::string TupleToString(const Tuple& t);

// Rough heap-footprint estimates for memory accounting (exec/
// memory_tracker.h): struct sizes plus string/Dewey payloads, descending
// into nested collections. Estimates, not allocator truth — budgets are
// order-of-magnitude guards, not ledgers.
int64_t ApproxTupleBytes(const Tuple& t);
int64_t ApproxTupleListBytes(const TupleList& ts);

}  // namespace uload

#endif  // ULOAD_ALGEBRA_TUPLE_H_
