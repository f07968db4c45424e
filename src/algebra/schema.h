// Schemas of nested relations: a flat list of attributes, each either atomic
// or a collection of tuples with its own nested schema. The data model
// alternates tuple and collection constructors (thesis §1.2.2).
#ifndef ULOAD_ALGEBRA_SCHEMA_H_
#define ULOAD_ALGEBRA_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace uload {

enum class CollectionKind : uint8_t { kSet = 0, kBag, kList };

class Schema;
using SchemaPtr = std::shared_ptr<const Schema>;

struct Attribute {
  std::string name;
  bool is_collection = false;
  // For collections: the element-tuple schema and the collection kind.
  SchemaPtr nested;
  CollectionKind collection_kind = CollectionKind::kList;

  static Attribute Atomic(std::string name) {
    return Attribute{std::move(name), false, nullptr, CollectionKind::kList};
  }
  static Attribute Collection(std::string name, SchemaPtr nested,
                              CollectionKind kind = CollectionKind::kList) {
    return Attribute{std::move(name), true, std::move(nested), kind};
  }
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attrs) : attrs_(std::move(attrs)) {}

  static SchemaPtr Make(std::vector<Attribute> attrs) {
    return std::make_shared<Schema>(std::move(attrs));
  }

  int size() const { return static_cast<int>(attrs_.size()); }
  const Attribute& attr(int i) const { return attrs_[i]; }
  const std::vector<Attribute>& attrs() const { return attrs_; }

  // Index of the attribute named `name`, or -1.
  int IndexOf(const std::string& name) const;

  // Schema of the concatenation of two tuples (s1 ++ s2). Clashing names on
  // the right are suffixed with '#'.
  static SchemaPtr Concat(const Schema& a, const Schema& b);

  // "name1, name2(sub1, sub2), name3"-style rendering.
  std::string ToString() const;

  bool Equals(const Schema& other) const;

 private:
  std::vector<Attribute> attrs_;
};

// A path through nested schemas: indices of attributes at each nesting
// level, e.g. {2, 0} is the first attribute of the collection stored in the
// third top-level attribute.
using AttrPath = std::vector<int>;

// Resolves a dotted name ("A1.A11") against `schema`. All path components
// except possibly the last must be collection attributes.
Result<AttrPath> ResolveAttrPath(const Schema& schema,
                                 const std::string& dotted);

// Schema navigation: attribute reached by `path`.
const Attribute& AttrAt(const Schema& schema, const AttrPath& path);

// Number of collection boundaries crossed *before* the final attribute.
int CollectionDepth(const Schema& schema, const AttrPath& path);

}  // namespace uload

#endif  // ULOAD_ALGEBRA_SCHEMA_H_
