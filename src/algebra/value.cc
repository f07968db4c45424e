#include "algebra/value.h"

#include <cstdio>

#include "common/string_util.h"

namespace uload {

bool operator==(const AtomicValue& a, const AtomicValue& b) {
  if (a.kind() == b.kind()) return a.v_ == b.v_;
  // Untyped coercion: a numeric string equals the number it denotes.
  double x = 0;
  double y = 0;
  if (a.is_string() && b.is_number() && ParseNumber(a.as_string(), &x)) {
    return x == b.as_number();
  }
  if (a.is_number() && b.is_string() && ParseNumber(b.as_string(), &y)) {
    return a.as_number() == y;
  }
  return false;
}

int AtomicValue::Compare(const AtomicValue& a, const AtomicValue& b) {
  auto rank = [](Kind k) {
    switch (k) {
      case Kind::kNull:
        return 0;
      case Kind::kSid:
      case Kind::kDewey:
        return 1;
      case Kind::kNumber:
        return 2;
      case Kind::kString:
        return 3;
    }
    return 4;
  };
  // Coercions first.
  if (a.is_string() && b.is_number()) {
    double x;
    if (ParseNumber(a.as_string(), &x)) {
      return x < b.as_number() ? -1 : (x > b.as_number() ? 1 : 0);
    }
  }
  if (a.is_number() && b.is_string()) {
    double y;
    if (ParseNumber(b.as_string(), &y)) {
      return a.as_number() < y ? -1 : (a.as_number() > y ? 1 : 0);
    }
  }
  if (rank(a.kind()) != rank(b.kind())) {
    return rank(a.kind()) < rank(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case Kind::kNull:
      return 0;
    case Kind::kNumber: {
      double x = a.as_number();
      double y = b.as_number();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Kind::kString:
      return a.as_string().compare(b.as_string());
    case Kind::kSid: {
      if (b.kind() == Kind::kDewey) return -1;  // arbitrary but stable
      uint32_t x = a.sid().pre;
      uint32_t y = b.sid().pre;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case Kind::kDewey: {
      if (b.kind() == Kind::kSid) return 1;
      return DeweyCompare(a.dewey(), b.dewey());
    }
  }
  return 0;
}

bool AtomicValue::IsParentOf(const AtomicValue& a, const AtomicValue& b) {
  if (a.kind() == Kind::kSid && b.kind() == Kind::kSid) {
    return IsParent(a.sid(), b.sid());
  }
  if (a.kind() == Kind::kDewey && b.kind() == Kind::kDewey) {
    return DeweyIsParent(a.dewey(), b.dewey());
  }
  return false;
}

bool AtomicValue::IsAncestorOf(const AtomicValue& a, const AtomicValue& b) {
  if (a.kind() == Kind::kSid && b.kind() == Kind::kSid) {
    return IsAncestor(a.sid(), b.sid());
  }
  if (a.kind() == Kind::kDewey && b.kind() == Kind::kDewey) {
    return DeweyIsAncestor(a.dewey(), b.dewey());
  }
  return false;
}

std::string AtomicValue::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "⊥";
    case Kind::kString:
      return "\"" + as_string() + "\"";
    case Kind::kNumber: {
      double d = as_number();
      if (d == static_cast<long long>(d)) {
        return std::to_string(static_cast<long long>(d));
      }
      return std::to_string(d);
    }
    case Kind::kSid:
      return uload::ToString(sid());
    case Kind::kDewey:
      return uload::ToString(dewey());
  }
  return "?";
}

std::string AtomicValue::ToDisplay() const {
  if (is_string()) return as_string();
  if (is_null()) return "";
  return ToString();
}

void AppendEqualityKey(const AtomicValue& v, std::string* key) {
  double x = 0;
  if (v.is_number()) {
    x = v.as_number();
  } else if (!v.is_string() || !ParseNumber(v.as_string(), &x)) {
    *key += v.ToString();
    *key += '\x1f';
    return;
  }
  if (x == 0) x = 0;  // -0 == 0
  char buf[32];
  std::snprintf(buf, sizeof(buf), "#%.17g\x1f", x);
  *key += buf;
}

}  // namespace uload
