#include "xam/xam.h"

#include <cassert>

namespace uload {
namespace {

// Calls `fn` with the suffix of each attribute `n` stores, in schema order.
template <typename Fn>
void ForEachStoredSuffix(const XamNode& n, Fn fn) {
  if (n.stores_id) fn("_ID");
  if (n.stores_tag) fn("_Tag");
  if (n.stores_val) fn("_Val");
  if (n.stores_cont) fn("_Cont");
}

}  // namespace

Xam::Xam() {
  XamNode top;
  top.name = "top";
  // ⊤ matches only the document root; it has no tag constraint and stores
  // nothing.
  nodes_.push_back(std::move(top));
}

XamNodeId Xam::AddNode(XamNodeId parent, Axis axis, const std::string& label,
                       JoinVariant variant, std::string name) {
  assert(parent >= 0 && parent < size());
  XamNodeId id = size();
  XamNode n;
  n.name = name.empty() ? "e" + std::to_string(next_auto_name_++)
                        : std::move(name);
  n.tag_value = label;
  n.parent = parent;
  nodes_.push_back(std::move(n));
  nodes_[parent].edges.push_back(XamEdge{id, axis, variant});
  return id;
}

XamNodeId Xam::AddAttributeNode(XamNodeId parent, const std::string& attr_name,
                                JoinVariant variant, std::string name) {
  // Empty attr_name = wildcard attribute (any attribute): the label stays
  // empty; the kind constraint lives in is_attribute.
  XamNodeId id = AddNode(parent, Axis::kChild,
                         attr_name.empty() ? "" : "@" + attr_name, variant,
                         std::move(name));
  nodes_[id].is_attribute = true;
  return id;
}

Xam& Xam::StoreId(XamNodeId id, IdKind kind, bool required) {
  nodes_[id].stores_id = true;
  nodes_[id].id_kind = kind;
  nodes_[id].id_required = required;
  return *this;
}

Xam& Xam::StoreTag(XamNodeId id, bool required) {
  nodes_[id].stores_tag = true;
  nodes_[id].tag_required = required;
  return *this;
}

Xam& Xam::StoreVal(XamNodeId id, bool required) {
  nodes_[id].stores_val = true;
  nodes_[id].val_required = required;
  return *this;
}

Xam& Xam::StoreCont(XamNodeId id) {
  nodes_[id].stores_cont = true;
  return *this;
}

Xam& Xam::ValPredicate(XamNodeId id, ValueFormula f) {
  nodes_[id].val_formula = std::move(f);
  return *this;
}

std::vector<XamNodeId> Xam::PreOrder() const {
  std::vector<XamNodeId> out;
  std::vector<XamNodeId> work{kXamRoot};
  while (!work.empty()) {
    XamNodeId id = work.back();
    work.pop_back();
    out.push_back(id);
    const auto& edges = nodes_[id].edges;
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      work.push_back(it->child);
    }
  }
  return out;
}

std::vector<XamNodeId> Xam::ReturnNodes() const {
  // Semijoined subtrees are existential only: nothing they store reaches
  // the result (consistent with ViewSchema()).
  std::vector<XamNodeId> out;
  std::vector<XamNodeId> work{kXamRoot};
  while (!work.empty()) {
    XamNodeId id = work.back();
    work.pop_back();
    if (id != kXamRoot && nodes_[id].returning()) out.push_back(id);
    const auto& edges = nodes_[id].edges;
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
      if (!it->semi()) work.push_back(it->child);
    }
  }
  return out;
}

XamNodeId Xam::NodeByName(const std::string& name) const {
  for (XamNodeId i = 0; i < size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  return -1;
}

const XamEdge& Xam::IncomingEdge(XamNodeId id) const {
  const XamNode& parent = nodes_[nodes_[id].parent];
  for (const XamEdge& e : parent.edges) {
    if (e.child == id) return e;
  }
  assert(false && "node has no incoming edge");
  return parent.edges.front();
}

int Xam::NestingDepth(XamNodeId id) const {
  int depth = 0;
  for (XamNodeId cur = id; cur != kXamRoot; cur = nodes_[cur].parent) {
    if (IncomingEdge(cur).nested()) ++depth;
  }
  return depth;
}

bool Xam::IsConjunctive() const {
  for (const XamNode& n : nodes_) {
    if (!n.val_formula.IsTrue()) {
      AtomicValue c;
      if (!n.val_formula.IsSingleEquality(&c)) return false;
    }
    for (const XamEdge& e : n.edges) {
      if (e.optional() || e.nested()) return false;
    }
  }
  return true;
}

bool Xam::IsDecorated() const {
  for (const XamNode& n : nodes_) {
    if (!n.val_formula.IsTrue()) return true;
  }
  return false;
}

bool Xam::HasOptionalEdges() const {
  for (const XamNode& n : nodes_) {
    for (const XamEdge& e : n.edges) {
      if (e.optional()) return true;
    }
  }
  return false;
}

bool Xam::HasNestedEdges() const {
  for (const XamNode& n : nodes_) {
    for (const XamEdge& e : n.edges) {
      if (e.nested()) return true;
    }
  }
  return false;
}

bool Xam::HasRequired() const {
  for (const XamNode& n : nodes_) {
    if (n.has_required()) return true;
  }
  return false;
}

void Xam::CollectSchema(XamNodeId id, std::vector<Attribute>* attrs) const {
  const XamNode& n = nodes_[id];
  if (id != kXamRoot) {
    ForEachStoredSuffix(n, [&](const char* suffix) {
      attrs->push_back(Attribute::Atomic(n.name + suffix));
    });
  }
  for (const XamEdge& e : n.edges) {
    if (e.semi()) continue;  // existential only
    if (e.nested()) {
      std::vector<Attribute> sub;
      CollectSchema(e.child, &sub);
      attrs->push_back(
          Attribute::Collection(nodes_[e.child].name, Schema::Make(sub)));
    } else {
      CollectSchema(e.child, attrs);
    }
  }
}

SchemaPtr Xam::ViewSchema() const {
  std::vector<Attribute> attrs;
  CollectSchema(kXamRoot, &attrs);
  return Schema::Make(std::move(attrs));
}

std::vector<Xam::StoredAttr> Xam::StoredAttrs() const {
  std::vector<StoredAttr> out;
  for (XamNodeId id : ReturnNodes()) {
    ForEachStoredSuffix(nodes_[id], [&](const char* suffix) {
      out.push_back({id, suffix});
    });
  }
  return out;
}

std::string Xam::NestedPrefix(XamNodeId id) const {
  std::vector<const std::string*> parts;
  for (XamNodeId cur = id; cur != kXamRoot; cur = nodes_[cur].parent) {
    if (IncomingEdge(cur).nested()) parts.push_back(&nodes_[cur].name);
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += **it;
    out += '.';
  }
  return out;
}

std::string Xam::AttrPath(XamNodeId id, std::string_view suffix) const {
  std::string out = NestedPrefix(id) + nodes_[id].name;
  out += suffix;
  return out;
}

bool Xam::StructurallyEquals(const Xam& other) const {
  if (size() != other.size() || ordered_ != other.ordered_) return false;
  // Compare in parallel pre-order walks; child order matters.
  std::vector<XamNodeId> a = PreOrder();
  std::vector<XamNodeId> b = other.PreOrder();
  for (size_t i = 0; i < a.size(); ++i) {
    const XamNode& x = nodes_[a[i]];
    const XamNode& y = other.nodes_[b[i]];
    if (x.is_attribute != y.is_attribute || x.stores_id != y.stores_id ||
        x.id_kind != y.id_kind || x.id_required != y.id_required ||
        x.stores_tag != y.stores_tag || x.tag_required != y.tag_required ||
        x.tag_value != y.tag_value || x.stores_val != y.stores_val ||
        x.val_required != y.val_required ||
        x.stores_cont != y.stores_cont ||
        x.edges.size() != y.edges.size()) {
      return false;
    }
    if (!x.val_formula.EquivalentTo(y.val_formula)) return false;
    for (size_t j = 0; j < x.edges.size(); ++j) {
      if (x.edges[j].axis != y.edges[j].axis ||
          x.edges[j].variant != y.edges[j].variant) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace uload
