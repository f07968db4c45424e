// Persistent node identifiers (thesis §1.2.1).
//
// Two concrete labeling schemes are implemented:
//  * StructuralId: the (pre, post, depth) triple of Dietz-style tree
//    traversal labels. Comparing two StructuralIds decides
//    ancestor/descendant/parent/child and document order.
//  * DeweyId: a navigational scheme (ORDPATH/Dewey). The identifier of any
//    ancestor is derivable from a node's own identifier by truncation.
//
// A XAM declares which *properties* of its stored identifiers the optimizer
// may rely on (IdKind); execution carries whichever concrete representation
// the storage structure materialized.
#ifndef ULOAD_XML_IDS_H_
#define ULOAD_XML_IDS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace uload {

// Property level of a stored identifier (XAM grammar: id i|o|s|p).
enum class IdKind : uint8_t {
  kSimple = 0,      // 'i': equality only
  kOrdered = 1,     // 'o': equality + document order
  kStructural = 2,  // 's': + ancestor/descendant/parent/child decisions
  kParental = 3,    // 'p': + ancestor-ID derivation (Dewey/ORDPATH)
};

// Returns 'i', 'o', 's' or 'p'.
char IdKindCode(IdKind kind);

// Parses 'i'/'o'/'s'/'p'; returns false on other characters.
bool IdKindFromCode(char c, IdKind* out);

// (pre, post, depth) labels from pre-/post-order traversals.
struct StructuralId {
  uint32_t pre = 0;
  uint32_t post = 0;
  uint32_t depth = 0;

  friend bool operator==(const StructuralId&, const StructuralId&) = default;
};

// m is an ancestor of n iff pre_m < pre_n and post_n < post_m.
bool IsAncestor(const StructuralId& m, const StructuralId& n);
// m is the parent of n iff ancestor and depth_m + 1 == depth_n.
bool IsParent(const StructuralId& m, const StructuralId& n);
// m precedes n in document order, subtrees disjoint: pre_m < pre_n ∧ post_m < post_n.
bool Precedes(const StructuralId& m, const StructuralId& n);

std::string ToString(const StructuralId& id);

// Dewey path: the root element is {1}; a node's k-th child (1-based) appends
// k. Ancestor test = strict prefix test; parent derivation = drop last arc.
using DeweyId = std::vector<uint32_t>;

bool DeweyIsAncestor(const DeweyId& m, const DeweyId& n);
bool DeweyIsParent(const DeweyId& m, const DeweyId& n);
// Identifier of the parent (empty DeweyId for the root's parent).
DeweyId DeweyParent(const DeweyId& id);
// Identifier of the ancestor at depth `depth` (1 = root). Precondition:
// depth <= id.size().
DeweyId DeweyAncestorAtDepth(const DeweyId& id, uint32_t depth);
// Lexicographic comparison == document order.
int DeweyCompare(const DeweyId& m, const DeweyId& n);

std::string ToString(const DeweyId& id);

}  // namespace uload

#endif  // ULOAD_XML_IDS_H_
