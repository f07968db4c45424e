#include "xml/ids.h"

#include <algorithm>

namespace uload {

char IdKindCode(IdKind kind) {
  switch (kind) {
    case IdKind::kSimple:
      return 'i';
    case IdKind::kOrdered:
      return 'o';
    case IdKind::kStructural:
      return 's';
    case IdKind::kParental:
      return 'p';
  }
  return '?';
}

bool IdKindFromCode(char c, IdKind* out) {
  switch (c) {
    case 'i':
      *out = IdKind::kSimple;
      return true;
    case 'o':
      *out = IdKind::kOrdered;
      return true;
    case 's':
      *out = IdKind::kStructural;
      return true;
    case 'p':
      *out = IdKind::kParental;
      return true;
    default:
      return false;
  }
}

bool IsAncestor(const StructuralId& m, const StructuralId& n) {
  return m.pre < n.pre && n.post < m.post;
}

bool IsParent(const StructuralId& m, const StructuralId& n) {
  return IsAncestor(m, n) && m.depth + 1 == n.depth;
}

bool Precedes(const StructuralId& m, const StructuralId& n) {
  // With independent pre- and post-order counters, "m's subtree is entirely
  // before n" is pre_m < pre_n together with post_m < post_n (the two nodes
  // are not on one root-to-leaf path). The single-counter shortcut
  // post_m < pre_n does NOT hold for this labeling.
  return m.pre < n.pre && m.post < n.post;
}

std::string ToString(const StructuralId& id) {
  return "(" + std::to_string(id.pre) + "," + std::to_string(id.post) + "," +
         std::to_string(id.depth) + ")";
}

bool DeweyIsAncestor(const DeweyId& m, const DeweyId& n) {
  if (m.size() >= n.size()) return false;
  return std::equal(m.begin(), m.end(), n.begin());
}

bool DeweyIsParent(const DeweyId& m, const DeweyId& n) {
  return m.size() + 1 == n.size() && DeweyIsAncestor(m, n);
}

DeweyId DeweyParent(const DeweyId& id) {
  if (id.empty()) return {};
  return DeweyId(id.begin(), id.end() - 1);
}

DeweyId DeweyAncestorAtDepth(const DeweyId& id, uint32_t depth) {
  return DeweyId(id.begin(), id.begin() + std::min<size_t>(depth, id.size()));
}

int DeweyCompare(const DeweyId& m, const DeweyId& n) {
  size_t common = std::min(m.size(), n.size());
  for (size_t i = 0; i < common; ++i) {
    if (m[i] != n[i]) return m[i] < n[i] ? -1 : 1;
  }
  if (m.size() == n.size()) return 0;
  return m.size() < n.size() ? -1 : 1;
}

std::string ToString(const DeweyId& id) {
  std::string out;
  for (size_t i = 0; i < id.size(); ++i) {
    if (i > 0) out += '.';
    out += std::to_string(id[i]);
  }
  return out;
}

}  // namespace uload
