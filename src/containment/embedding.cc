#include "containment/embedding.h"

#include <algorithm>

namespace uload {
namespace {

// Candidate summary nodes for a pattern node, given its own constraints.
bool NodeMatches(const XamNode& pn, const SummaryNode& sn) {
  if (pn.is_attribute) {
    if (sn.kind != NodeKind::kAttribute) return false;
    // Attribute pattern labels carry the '@' prefix, as do summary labels.
    return pn.tag_value.empty() || sn.label == pn.tag_value;
  }
  if (sn.kind != NodeKind::kElement) return false;
  return pn.is_wildcard() || sn.label == pn.tag_value;
}

class Enumerator {
 public:
  Enumerator(const Xam& p, const PathSummary& s, size_t limit)
      : p_(p), s_(s), limit_(limit) {
    order_ = p_.PreOrder();
    image_.assign(p_.size(), kNoSummaryNode);
  }

  std::vector<SummaryEmbedding> Run() {
    image_[kXamRoot] = s_.document_node();
    Recurse(1);
    return std::move(found_);
  }

 private:
  std::vector<SummaryNodeId> Candidates(XamNodeId node,
                                        SummaryNodeId base) const {
    const XamNode& pn = p_.node(node);
    const XamEdge& edge = p_.IncomingEdge(node);
    std::vector<SummaryNodeId> raw =
        edge.axis == Axis::kChild
            ? s_.ChildrenWithLabel(base, pn.tag_value)
            : s_.Descendants(base, pn.tag_value);
    std::vector<SummaryNodeId> out;
    for (SummaryNodeId c : raw) {
      if (NodeMatches(pn, s_.node(c))) out.push_back(c);
    }
    return out;
  }

  // Whether `node`'s subtree fully embeds with `node` at `at` (optional
  // children may map to ⊥).
  bool SubtreeEmbeds(XamNodeId node, SummaryNodeId at) const {
    for (const XamEdge& e : p_.node(node).edges) {
      if (e.optional()) continue;
      bool found = false;
      for (SummaryNodeId c : Candidates(e.child, at)) {
        if (SubtreeEmbeds(e.child, c)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  void Recurse(size_t idx) {
    if (found_.size() >= limit_) return;
    if (idx == order_.size()) {
      found_.push_back(image_);
      return;
    }
    XamNodeId node = order_[idx];
    const XamEdge& edge = p_.IncomingEdge(node);
    SummaryNodeId base = image_[p_.node(node).parent];
    if (base == kNoSummaryNode) {
      // Inside an unembeddable optional subtree: stays ⊥.
      image_[node] = kNoSummaryNode;
      Recurse(idx + 1);
      return;
    }
    std::vector<SummaryNodeId> candidates;
    for (SummaryNodeId c : Candidates(node, base)) {
      if (SubtreeEmbeds(node, c)) candidates.push_back(c);
    }
    for (SummaryNodeId c : candidates) {
      image_[node] = c;
      Recurse(idx + 1);
      if (found_.size() >= limit_) return;
    }
    image_[node] = kNoSummaryNode;
    if (candidates.empty() && edge.optional()) {
      // No summary embedding for this optional subtree: it maps to ⊥ and
      // the rest of the pattern may still embed.
      Recurse(idx + 1);
    }
  }

  const Xam& p_;
  const PathSummary& s_;
  size_t limit_;
  std::vector<XamNodeId> order_;
  SummaryEmbedding image_;
  std::vector<SummaryEmbedding> found_;
};

}  // namespace

std::vector<SummaryEmbedding> EmbedIntoSummary(const Xam& p,
                                               const PathSummary& summary,
                                               size_t limit) {
  Enumerator e(p, summary, limit);
  return e.Run();
}

AnnotationSets PathAnnotations(const Xam& p, const PathSummary& summary) {
  // Candidate sets live in one pool: node id's set is pool[first[id],
  // last[id]), and filtering compacts it in place.
  std::vector<SummaryNodeId> pool;
  std::vector<uint32_t> first(p.size());
  std::vector<uint32_t> last(p.size());
  auto add = [&](SummaryNodeId s) { pool.push_back(s); };
  // Initial candidate sets from node constraints.
  for (XamNodeId id = 0; id < p.size(); ++id) {
    first[id] = static_cast<uint32_t>(pool.size());
    const XamNode& pn = p.node(id);
    if (id == kXamRoot) {
      add(summary.document_node());
    } else if (!pn.tag_value.empty()) {
      for (SummaryNodeId s : summary.NodesWithLabel(pn.tag_value)) {
        if (NodeMatches(pn, summary.node(s))) add(s);
      }
    } else if (pn.is_attribute) {
      for (SummaryNodeId s = 1; s < summary.size(); ++s) {
        if (summary.node(s).kind == NodeKind::kAttribute) add(s);
      }
    } else {
      const std::vector<SummaryNodeId>& elements = summary.ElementNodes();
      pool.insert(pool.end(), elements.begin(), elements.end());
    }
    last[id] = static_cast<uint32_t>(pool.size());
  }
  // Membership bitmap over summary nodes: a node is marked when
  // stamp[node] == generation, so starting a new set is one increment.
  std::vector<uint32_t> stamp(summary.size(), 0);
  uint32_t generation = 0;
  auto marked = [&](SummaryNodeId s) { return stamp[s] == generation; };
  auto mark_set = [&](XamNodeId id) {
    ++generation;
    for (uint32_t i = first[id]; i < last[id]; ++i) stamp[pool[i]] = generation;
  };
  // Drops the candidates of `id` that fail `ok`; reports any drop.
  auto filter = [&](XamNodeId id, bool* changed, const auto& ok) {
    auto begin = pool.begin() + first[id];
    auto end = pool.begin() + last[id];
    auto kept = std::remove_if(begin, end,
                               [&](SummaryNodeId s) { return !ok(s); });
    if (kept != end) *changed = true;
    last[id] = static_cast<uint32_t>(kept - pool.begin());
  };
  // Arc-consistency: iterate until fixpoint — a candidate for a node must
  // have a compatible candidate at each neighbor (parent and children).
  bool changed = true;
  std::vector<XamNodeId> order = p.PreOrder();
  while (changed) {
    changed = false;
    // Downward: a child candidate must sit below (or, on a / edge, right
    // under) some marked parent candidate.
    for (XamNodeId id : order) {
      if (id == kXamRoot) continue;
      mark_set(p.node(id).parent);
      if (p.IncomingEdge(id).axis == Axis::kChild) {
        filter(id, &changed,
               [&](SummaryNodeId c) { return marked(summary.node(c).parent); });
      } else {
        filter(id, &changed, [&](SummaryNodeId c) {
          for (SummaryNodeId a = summary.node(c).parent; a != kNoSummaryNode;
               a = summary.node(a).parent) {
            if (marked(a)) return true;
          }
          return false;
        });
      }
    }
    // Upward: a parent candidate must be the parent (/) or an ancestor (//)
    // of some child candidate, for every required child edge: mark those
    // and keep the marked parent candidates.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      XamNodeId id = *it;
      for (const XamEdge& e : p.node(id).edges) {
        // An optional child with no compatible placement maps to ⊥; it must
        // not prune its parent's candidates.
        if (e.optional()) continue;
        ++generation;
        for (uint32_t i = first[e.child]; i < last[e.child]; ++i) {
          SummaryNodeId a = summary.node(pool[i]).parent;
          if (e.axis == Axis::kChild) {
            stamp[a] = generation;
            continue;
          }
          // A marked ancestor already has its whole chain marked.
          for (; a != kNoSummaryNode && !marked(a); a = summary.node(a).parent) {
            stamp[a] = generation;
          }
        }
        filter(id, &changed, marked);
      }
    }
  }
  // Compact the surviving sets into the result, in node id order.
  AnnotationSets out;
  out.starts_.reserve(p.size() + 1);
  out.starts_.push_back(0);
  uint32_t size = 0;
  for (XamNodeId id = 0; id < p.size(); ++id) {
    for (uint32_t i = first[id]; i < last[id]; ++i) pool[size++] = pool[i];
    out.starts_.push_back(size);
  }
  pool.resize(size);
  pool.shrink_to_fit();
  out.nodes_ = std::move(pool);
  return out;
}

bool IsSatisfiable(const Xam& p, const PathSummary& summary) {
  return !EmbedIntoSummary(p, summary, 1).empty();
}

}  // namespace uload
