// XML Access Modules (thesis Chapter 2): annotated tree patterns uniformly
// describing storage structures, indexes, materialized views, and query
// sub-expressions.
//
// A XAM is an ordered tree (NS, ES, o). Node 0 is always the special ⊤ node
// (the document root). Every other node carries:
//  * an optional ID specification: id (i|o|s|p) (R?)
//  * an optional Tag specification: Tag (R?) — stored —, or [Tag=c]
//  * an optional Val specification: Val (R?) — stored —, or a value formula
//    φ(v) ([Val=c] generalized to decorated patterns, §4.1)
//  * an optional Cont specification.
// Edges are / (parent-child) or // (ancestor-descendant) with join semantics
// j / o / s / nj / no. The containment chapters' "optional" edges are the o
// and no variants; "nested" edges are nj and no.
#ifndef ULOAD_XAM_XAM_H_
#define ULOAD_XAM_XAM_H_

#include <string>
#include <string_view>
#include <vector>

#include "algebra/logical_plan.h"
#include "algebra/schema.h"
#include "common/status.h"
#include "xam/formula.h"
#include "xml/ids.h"

namespace uload {

using XamNodeId = int32_t;
inline constexpr XamNodeId kXamRoot = 0;

// Val storage and Val predicate are independent: a node may store its value
// and also constrain it ([Val=c] with Val stored).

struct XamEdge {
  XamNodeId child = -1;
  Axis axis = Axis::kChild;  // '/' or '//'
  JoinVariant variant = JoinVariant::kInner;

  bool optional() const {
    return variant == JoinVariant::kLeftOuter ||
           variant == JoinVariant::kNestOuter;
  }
  bool nested() const {
    return variant == JoinVariant::kNestJoin ||
           variant == JoinVariant::kNestOuter;
  }
  bool semi() const { return variant == JoinVariant::kSemi; }
};

struct XamNode {
  std::string name;           // unique within the XAM (e.g. "e1"); ⊤ = "top"
  bool is_attribute = false;  // XML-attribute node (names starting with '@')

  // ID specification.
  bool stores_id = false;
  IdKind id_kind = IdKind::kStructural;
  bool id_required = false;

  // Tag specification: the [Tag=c] constraint lives in tag_value ("" = any
  // label, i.e. a * node); stores_tag says the tag is materialized.
  bool stores_tag = false;
  bool tag_required = false;
  std::string tag_value;

  // Val specification: stores_val materializes the value; val_formula is the
  // [Val θ c] constraint (True = unconstrained).
  bool stores_val = false;
  bool val_required = false;
  ValueFormula val_formula = ValueFormula::True();

  // Cont specification.
  bool stores_cont = false;

  // Outgoing edges in left-to-right order.
  std::vector<XamEdge> edges;
  XamNodeId parent = -1;

  // Label this node requires of matched XML nodes: the [Tag=c] constant, or
  // "" meaning * (any label).
  const std::string& label() const { return tag_value; }
  bool is_wildcard() const { return tag_value.empty(); }

  // A node is *returning* if it stores at least one attribute.
  bool returning() const {
    return stores_id || stores_tag || stores_val || stores_cont;
  }
  bool has_required() const {
    return id_required || tag_required || val_required;
  }
};

class Xam {
 public:
  Xam();

  // --- Construction --------------------------------------------------------

  // Adds a node under `parent`. Returns its id. `name` defaults to
  // "e<k>"; `label` == "" means a * node.
  XamNodeId AddNode(XamNodeId parent, Axis axis, const std::string& label,
                    JoinVariant variant = JoinVariant::kInner,
                    std::string name = "");
  // Adds an attribute node (tag predicate "@name").
  XamNodeId AddAttributeNode(XamNodeId parent, const std::string& attr_name,
                             JoinVariant variant = JoinVariant::kInner,
                             std::string name = "");

  XamNode& node(XamNodeId id) { return nodes_[id]; }
  const XamNode& node(XamNodeId id) const { return nodes_[id]; }
  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }

  bool ordered() const { return ordered_; }
  void set_ordered(bool o) { ordered_ = o; }

  // Annotation helpers (fluent-ish).
  Xam& StoreId(XamNodeId id, IdKind kind = IdKind::kStructural,
               bool required = false);
  Xam& StoreTag(XamNodeId id, bool required = false);
  Xam& StoreVal(XamNodeId id, bool required = false);
  Xam& StoreCont(XamNodeId id);
  Xam& ValPredicate(XamNodeId id, ValueFormula f);

  // --- Introspection -------------------------------------------------------

  // Node ids in pre-order (root first).
  std::vector<XamNodeId> PreOrder() const;
  // Returning nodes (storing >= 1 attribute) outside semijoined subtrees,
  // in pre-order.
  std::vector<XamNodeId> ReturnNodes() const;
  // Node by name; -1 if absent.
  XamNodeId NodeByName(const std::string& name) const;
  // The edge from node(id).parent to id. Precondition: id != root.
  const XamEdge& IncomingEdge(XamNodeId id) const;

  // Depth of nesting: number of nested (nj/no) edges strictly above `id`
  // (|ns(n)| of §4.4.5).
  int NestingDepth(XamNodeId id) const;

  // True if every edge is / or // with variant j and no node has predicates
  // beyond [Tag=c] — the conjunctive fragment of §4.1 (semijoin edges are
  // also conjunctive: they simply do not return attributes).
  bool IsConjunctive() const;

  // True if any node carries a non-trivial value formula.
  bool IsDecorated() const;
  bool HasOptionalEdges() const;
  bool HasNestedEdges() const;
  bool HasRequired() const;

  // The nested-relation schema of the data this XAM stores (Defs.
  // 2.2.3–2.2.4). Attribute names are "<node>_ID", "<node>_Tag",
  // "<node>_Val", "<node>_Cont"; a nested (nj/no) edge contributes one
  // collection attribute named after the child node, containing the child
  // subtree's attributes; a semijoined subtree stores nothing. This is the
  // schema of EvaluateXam's result and of every catalog view's extent.
  SchemaPtr ViewSchema() const;

  // One stored attribute: `node`'s ID, Tag, Val or Cont (`suffix` is
  // "_ID", "_Tag", "_Val" or "_Cont").
  struct StoredAttr {
    XamNodeId node;
    const char* suffix;
  };
  // The atomic attributes of ViewSchema(), flattened, in schema order.
  std::vector<StoredAttr> StoredAttrs() const;
  // Dotted prefix of the nested collections holding `id`'s attributes:
  // "a.b." when `id` lies in collection a and, inside it, b (a node whose
  // own incoming edge is nested opens its collection); "" at the top level.
  std::string NestedPrefix(XamNodeId id) const;
  // Dotted path of `id`'s attribute with `suffix`, e.g. "a.b.e3_Val".
  std::string AttrPath(XamNodeId id, std::string_view suffix) const;

  // Structural equality of the two XAM trees (names ignored).
  bool StructurallyEquals(const Xam& other) const;

 private:
  void CollectSchema(XamNodeId id, std::vector<Attribute>* attrs) const;

  std::vector<XamNode> nodes_;
  bool ordered_ = false;
  int next_auto_name_ = 1;
};

}  // namespace uload

#endif  // ULOAD_XAM_XAM_H_
