#include "exec/plan_schemas.h"

#include <map>

namespace uload {
namespace {

struct ProjTree {
  std::map<int, ProjTree> children;
  bool keep_all = false;
};

Status BuildProjTree(const Schema& schema,
                     const std::vector<std::string>& attrs, ProjTree* root) {
  for (const std::string& dotted : attrs) {
    ULOAD_ASSIGN_OR_RETURN(AttrPath path, ResolveAttrPath(schema, dotted));
    ProjTree* cur = root;
    for (size_t i = 0; i < path.size(); ++i) cur = &cur->children[path[i]];
    cur->keep_all = true;
  }
  return Status::Ok();
}

SchemaPtr ProjSchema(const Schema& schema, const ProjTree& tree) {
  std::vector<Attribute> attrs;
  for (const auto& [idx, sub] : tree.children) {
    const Attribute& a = schema.attr(idx);
    if (sub.keep_all || !a.is_collection) {
      attrs.push_back(a);
    } else {
      attrs.push_back(Attribute::Collection(a.name, ProjSchema(*a.nested, sub),
                                            a.collection_kind));
    }
  }
  return Schema::Make(std::move(attrs));
}

}  // namespace

SchemaPtr JoinOutputSchema(const Schema& left, const Schema& right,
                           JoinVariant variant, const std::string& nest_as) {
  switch (variant) {
    case JoinVariant::kInner:
    case JoinVariant::kLeftOuter:
      return Schema::Concat(left, right);
    case JoinVariant::kSemi:
      return Schema::Make(left.attrs());
    case JoinVariant::kNestJoin:
    case JoinVariant::kNestOuter: {
      std::vector<Attribute> attrs = left.attrs();
      attrs.push_back(Attribute::Collection(nest_as.empty() ? "s" : nest_as,
                                            Schema::Make(right.attrs())));
      return Schema::Make(std::move(attrs));
    }
  }
  return Schema::Make({});
}

void EmitJoinVariant(JoinVariant variant, Tuple left, TupleList* pool,
                     const std::vector<size_t>* rows, const Schema& right,
                     std::deque<Tuple>* out) {
  const size_t n = rows != nullptr ? rows->size() : pool->size();
  auto match = [&](size_t i) -> const Tuple& {
    return (*pool)[rows != nullptr ? (*rows)[i] : i];
  };
  switch (variant) {
    case JoinVariant::kInner:
    case JoinVariant::kLeftOuter:
      if (n == 0 && variant == JoinVariant::kLeftOuter) {
        out->push_back(ConcatTuples(left, NullTuple(right)));
      }
      for (size_t i = 0; i < n; ++i) {
        out->push_back(ConcatTuples(left, match(i)));
      }
      break;
    case JoinVariant::kSemi:
      if (n > 0) out->push_back(std::move(left));
      break;
    case JoinVariant::kNestJoin:
    case JoinVariant::kNestOuter: {
      if (n == 0 && variant == JoinVariant::kNestJoin) break;
      TupleList nested;
      if (rows == nullptr) {
        nested = std::move(*pool);
      } else {
        nested.reserve(n);
        for (size_t i = 0; i < n; ++i) nested.push_back(match(i));
      }
      left.fields.emplace_back(std::move(nested));
      out->push_back(std::move(left));
      break;
    }
  }
}

SchemaPtr DeriveParentSchema(const Schema& input,
                             const std::string& out_attr) {
  std::vector<Attribute> attrs = input.attrs();
  attrs.push_back(Attribute::Atomic(out_attr));
  return Schema::Make(std::move(attrs));
}

SchemaPtr PrefixedSchema(const Schema& schema, const std::string& prefix) {
  std::vector<Attribute> attrs;
  for (const Attribute& a : schema.attrs()) {
    if (a.is_collection) {
      attrs.push_back(Attribute::Collection(prefix + a.name,
                                            PrefixedSchema(*a.nested, prefix),
                                            a.collection_kind));
    } else {
      attrs.push_back(Attribute::Atomic(prefix + a.name));
    }
  }
  return Schema::Make(std::move(attrs));
}

SchemaPtr NavigateEmitSchema(const NavEmit& emit) {
  std::vector<Attribute> attrs;
  if (emit.id) attrs.push_back(Attribute::Atomic(emit.prefix + "_ID"));
  if (emit.tag) attrs.push_back(Attribute::Atomic(emit.prefix + "_Tag"));
  if (emit.val) attrs.push_back(Attribute::Atomic(emit.prefix + "_Val"));
  if (emit.cont) attrs.push_back(Attribute::Atomic(emit.prefix + "_Cont"));
  return Schema::Make(std::move(attrs));
}

Result<SchemaPtr> ProjectionSchema(const Schema& schema,
                                   const std::vector<std::string>& attrs) {
  ProjTree tree;
  ULOAD_RETURN_NOT_OK(BuildProjTree(schema, attrs, &tree));
  return ProjSchema(schema, tree);
}

Result<TupleProjector> TupleProjector::Make(
    const Schema& schema, const std::vector<std::string>& attrs) {
  ProjTree tree;
  ULOAD_RETURN_NOT_OK(BuildProjTree(schema, attrs, &tree));
  TupleProjector p;
  p.schema_ = ProjSchema(schema, tree);
  // Flatten the tree, baking in whether each kept collection is descended
  // into, so Apply never consults the schema.
  struct Rec {
    static std::vector<Node> Run(const Schema& s, const ProjTree& t) {
      std::vector<Node> nodes;
      for (const auto& [idx, sub] : t.children) {
        Node n;
        n.index = idx;
        const Attribute& a = s.attr(idx);
        if (!sub.keep_all && a.is_collection) {
          n.recurse = true;
          n.kids = Run(*a.nested, sub);
        }
        nodes.push_back(std::move(n));
      }
      return nodes;
    }
  };
  p.roots_ = Rec::Run(schema, tree);
  return p;
}

Tuple TupleProjector::Project(const std::vector<Node>& nodes, const Tuple& t) {
  Tuple out;
  out.fields.reserve(nodes.size());
  for (const Node& n : nodes) {
    const Field& f = t.fields[n.index];
    if (!n.recurse || !f.is_collection()) {
      out.fields.push_back(f);
    } else {
      TupleList nested;
      nested.reserve(f.collection().size());
      for (const Tuple& s : f.collection()) {
        nested.push_back(Project(n.kids, s));
      }
      out.fields.emplace_back(std::move(nested));
    }
  }
  return out;
}

Tuple TupleProjector::ProjectMove(const std::vector<Node>& nodes, Tuple& t) {
  Tuple out;
  out.fields.reserve(nodes.size());
  for (const Node& n : nodes) {
    Field& f = t.fields[n.index];
    if (!n.recurse || !f.is_collection()) {
      out.fields.push_back(std::move(f));
    } else {
      TupleList nested;
      nested.reserve(f.collection().size());
      for (Tuple& s : f.collection()) {
        nested.push_back(ProjectMove(n.kids, s));
      }
      out.fields.emplace_back(std::move(nested));
    }
  }
  return out;
}

Status CheckSameShape(const Schema& from, const Schema& to) {
  if (from.size() != to.size()) {
    return Status::TypeError("schema {" + from.ToString() +
                             "} does not line up with {" + to.ToString() +
                             "}");
  }
  for (int i = 0; i < from.size(); ++i) {
    if (from.attr(i).is_collection != to.attr(i).is_collection) {
      return Status::TypeError("schema shape mismatch at attribute " +
                               from.attr(i).name);
    }
    if (from.attr(i).is_collection) {
      ULOAD_RETURN_NOT_OK(
          CheckSameShape(*from.attr(i).nested, *to.attr(i).nested));
    }
  }
  return Status::Ok();
}

}  // namespace uload
