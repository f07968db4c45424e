#include "algebra/tuple.h"

namespace uload {

int CompareTuples(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.fields.size(), b.fields.size());
  for (size_t i = 0; i < n; ++i) {
    const Field& fa = a.fields[i];
    const Field& fb = b.fields[i];
    if (fa.is_collection() != fb.is_collection()) {
      return fa.is_collection() ? 1 : -1;
    }
    if (fa.is_collection()) {
      const TupleList& ca = fa.collection();
      const TupleList& cb = fb.collection();
      size_t m = std::min(ca.size(), cb.size());
      for (size_t j = 0; j < m; ++j) {
        int c = CompareTuples(ca[j], cb[j]);
        if (c != 0) return c;
      }
      if (ca.size() != cb.size()) return ca.size() < cb.size() ? -1 : 1;
    } else {
      int c = AtomicValue::Compare(fa.atom(), fb.atom());
      if (c != 0) return c;
      // Compare() treats values of different kinds with numeric coercion;
      // distinguish null-vs-null only.
      if (fa.atom().is_null() != fb.atom().is_null()) {
        return fa.atom().is_null() ? -1 : 1;
      }
    }
  }
  if (a.fields.size() != b.fields.size()) {
    return a.fields.size() < b.fields.size() ? -1 : 1;
  }
  return 0;
}

bool TuplesEqual(const Tuple& a, const Tuple& b) {
  return CompareTuples(a, b) == 0;
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out = a;
  out.fields.insert(out.fields.end(), b.fields.begin(), b.fields.end());
  return out;
}

Tuple NullTuple(const Schema& schema) {
  Tuple t;
  t.fields.reserve(schema.size());
  for (int i = 0; i < schema.size(); ++i) {
    if (schema.attr(i).is_collection) {
      t.fields.emplace_back(TupleList{});
    } else {
      t.fields.emplace_back(AtomicValue::Null());
    }
  }
  return t;
}

void CollectAtomsAt(const Tuple& t, const Schema& schema, const AttrPath& path,
                    size_t depth, std::vector<AtomicValue>* out) {
  const Field& f = t.fields[path[depth]];
  if (depth + 1 == path.size()) {
    if (!f.is_collection()) out->push_back(f.atom());
    return;
  }
  const Attribute& attr = schema.attr(path[depth]);
  if (!f.is_collection()) return;
  for (const Tuple& sub : f.collection()) {
    CollectAtomsAt(sub, *attr.nested, path, depth + 1, out);
  }
}

int64_t ApproxTupleBytes(const Tuple& t) {
  int64_t n = static_cast<int64_t>(sizeof(Tuple));
  for (const Field& f : t.fields) {
    n += static_cast<int64_t>(sizeof(Field));
    if (f.is_collection()) {
      n += ApproxTupleListBytes(f.collection());
    } else {
      const AtomicValue& v = f.atom();
      if (v.is_string()) {
        n += static_cast<int64_t>(v.as_string().capacity());
      } else if (v.kind() == AtomicValue::Kind::kDewey) {
        n += static_cast<int64_t>(v.dewey().capacity() * sizeof(uint32_t));
      }
    }
  }
  return n;
}

int64_t ApproxTupleListBytes(const TupleList& ts) {
  int64_t n = 0;
  for (const Tuple& t : ts) n += ApproxTupleBytes(t);
  return n;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.fields.size(); ++i) {
    if (i > 0) out += ", ";
    const Field& f = t.fields[i];
    if (f.is_collection()) {
      out += "[";
      for (size_t j = 0; j < f.collection().size(); ++j) {
        if (j > 0) out += " ";
        out += TupleToString(f.collection()[j]);
      }
      out += "]";
    } else {
      out += f.atom().ToString();
    }
  }
  out += ")";
  return out;
}

}  // namespace uload
