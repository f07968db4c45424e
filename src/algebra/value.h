// Atomic values of the nested-relational data model (thesis §1.2.2).
//
// The atomic domain A contains strings and numbers; node identifiers are
// also atomic values (the I domain) and come in two concrete flavors:
// (pre, post, depth) structural ids and Dewey paths. The ≺ (parent) and ≺≺
// (ancestor) comparators only apply to identifier values.
#ifndef ULOAD_ALGEBRA_VALUE_H_
#define ULOAD_ALGEBRA_VALUE_H_

#include <string>
#include <variant>

#include "xml/ids.h"

namespace uload {

class AtomicValue {
 public:
  enum class Kind { kNull = 0, kString, kNumber, kSid, kDewey };

  AtomicValue() : v_(NullTag{}) {}

  static AtomicValue Null() { return AtomicValue(); }
  static AtomicValue String(std::string s) {
    return AtomicValue(std::move(s));
  }
  static AtomicValue Number(double d) { return AtomicValue(d); }
  static AtomicValue Sid(StructuralId id) { return AtomicValue(id); }
  static AtomicValue Dewey(DeweyId id) { return AtomicValue(std::move(id)); }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_id() const { return kind() == Kind::kSid || kind() == Kind::kDewey; }

  const std::string& as_string() const { return std::get<std::string>(v_); }
  double as_number() const { return std::get<double>(v_); }
  const StructuralId& sid() const { return std::get<StructuralId>(v_); }
  const DeweyId& dewey() const { return std::get<DeweyId>(v_); }

  // Value equality. Strings compare to numbers by numeric coercion when the
  // string parses as a number (XQuery-ish untyped comparison).
  friend bool operator==(const AtomicValue& a, const AtomicValue& b);

  // Total order for sorting and <,> predicates: null < ids (document order)
  // < numbers < strings; string/number pairs coerce numerically when
  // possible. Returns <0, 0, >0.
  static int Compare(const AtomicValue& a, const AtomicValue& b);

  // Structural predicates over identifiers. False when kinds differ or
  // either side is not an id.
  static bool IsParentOf(const AtomicValue& a, const AtomicValue& b);
  static bool IsAncestorOf(const AtomicValue& a, const AtomicValue& b);

  // Debug/printing representation (strings quoted).
  std::string ToString() const;
  // Raw representation (strings unquoted) for XML construction.
  std::string ToDisplay() const;

 private:
  struct NullTag {
    friend bool operator==(const NullTag&, const NullTag&) = default;
  };

  explicit AtomicValue(std::string s) : v_(std::move(s)) {}
  explicit AtomicValue(double d) : v_(d) {}
  explicit AtomicValue(StructuralId id) : v_(id) {}
  explicit AtomicValue(DeweyId id) : v_(std::move(id)) {}

  std::variant<NullTag, std::string, double, StructuralId, DeweyId> v_;
};

// Appends `v`'s hash key and a separator to `*key`. Values that operator==
// equates share a key (a string that reads as a number is keyed by that
// number, as the number itself is), so a hash table on these keys only
// narrows an equality lookup and operator== decides it: a materialized
// view's value index and HashJoin_φ's build side both key this way.
void AppendEqualityKey(const AtomicValue& v, std::string* key);

}  // namespace uload

#endif  // ULOAD_ALGEBRA_VALUE_H_
