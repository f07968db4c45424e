#include "algebra/schema.h"

#include "common/string_util.h"

namespace uload {

int Schema::IndexOf(const std::string& name) const {
  for (int i = 0; i < size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return -1;
}

SchemaPtr Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Attribute> attrs = a.attrs_;
  for (const Attribute& attr : b.attrs_) {
    Attribute copy = attr;
    if (a.IndexOf(copy.name) >= 0) copy.name += "#";
    attrs.push_back(std::move(copy));
  }
  return Make(std::move(attrs));
}

std::string Schema::ToString() const {
  std::string out;
  for (int i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += attrs_[i].name;
    if (attrs_[i].is_collection) {
      out += "(";
      out += attrs_[i].nested->ToString();
      out += ")";
    }
  }
  return out;
}

bool Schema::Equals(const Schema& other) const {
  if (size() != other.size()) return false;
  for (int i = 0; i < size(); ++i) {
    const Attribute& a = attrs_[i];
    const Attribute& b = other.attrs_[i];
    if (a.name != b.name || a.is_collection != b.is_collection) return false;
    if (a.is_collection && !a.nested->Equals(*b.nested)) return false;
  }
  return true;
}

Result<AttrPath> ResolveAttrPath(const Schema& schema,
                                 const std::string& dotted) {
  std::vector<std::string> parts = SplitNonEmpty(dotted, '.');
  if (parts.empty()) {
    return Status::InvalidArgument("empty attribute path");
  }
  AttrPath path;
  const Schema* cur = &schema;
  for (size_t i = 0; i < parts.size(); ++i) {
    int idx = cur->IndexOf(parts[i]);
    if (idx < 0) {
      return Status::NotFound("attribute '" + parts[i] + "' not in schema {" +
                              cur->ToString() + "}");
    }
    path.push_back(idx);
    const Attribute& attr = cur->attr(idx);
    if (i + 1 < parts.size()) {
      if (!attr.is_collection) {
        return Status::TypeError("attribute '" + parts[i] +
                                 "' is atomic but path continues");
      }
      cur = attr.nested.get();
    }
  }
  return path;
}

const Attribute& AttrAt(const Schema& schema, const AttrPath& path) {
  const Schema* cur = &schema;
  for (size_t i = 0;; ++i) {
    const Attribute& attr = cur->attr(path[i]);
    if (i + 1 == path.size()) return attr;
    cur = attr.nested.get();
  }
}

int CollectionDepth(const Schema& schema, const AttrPath& path) {
  int depth = 0;
  const Schema* cur = &schema;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Attribute& attr = cur->attr(path[i]);
    if (attr.is_collection) {
      ++depth;
      cur = attr.nested.get();
    }
  }
  return depth;
}

}  // namespace uload
