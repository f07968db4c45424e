#include "containment/embedding.h"

#include <algorithm>

namespace uload {

bool NodeMatches(const XamNode& pn, const SummaryNode& sn) {
  // Attribute pattern labels carry the '@' prefix, as do summary labels.
  NodeKind kind = pn.is_attribute ? NodeKind::kAttribute : NodeKind::kElement;
  return sn.kind == kind && (pn.is_wildcard() || sn.label == pn.tag_value);
}

std::vector<SummaryNodeId> SummaryCandidates(const Xam& p, XamNodeId node,
                                             Axis axis, SummaryNodeId at,
                                             const PathSummary& summary) {
  const XamNode& pn = p.node(node);
  std::vector<SummaryNodeId> out =
      axis == Axis::kChild ? summary.ChildrenWithLabel(at, pn.tag_value)
                           : summary.Descendants(at, pn.tag_value);
  std::erase_if(out, [&](SummaryNodeId c) {
    return !NodeMatches(pn, summary.node(c));
  });
  return out;
}

namespace {

// Whether `node`'s subtree fully embeds with `node` at `at` (optional
// children may map to ⊥).
bool SubtreeEmbeds(const Xam& p, XamNodeId node, SummaryNodeId at,
                   const PathSummary& s) {
  for (const XamEdge& e : p.node(node).edges) {
    if (e.optional()) continue;
    std::vector<SummaryNodeId> cands =
        SummaryCandidates(p, e.child, e.axis, at, s);
    if (std::none_of(cands.begin(), cands.end(), [&](SummaryNodeId c) {
          return SubtreeEmbeds(p, e.child, c, s);
        })) {
      return false;
    }
  }
  return true;
}

// Backtracking over the pattern's nodes in pre-order: each node takes every
// candidate below its parent's image whose subtree still embeds.
struct Walk {
  const Xam& p;
  const PathSummary& s;
  const std::function<bool(const SummaryEmbedding&)>& fn;
  std::vector<XamNodeId> order;
  SummaryEmbedding image;

  // Returns false once `fn` has stopped the walk.
  bool Recurse(size_t idx) {
    if (idx == order.size()) return fn(image);
    XamNodeId node = order[idx];
    const XamEdge& edge = p.IncomingEdge(node);
    SummaryNodeId base = image[p.node(node).parent];
    if (base == kNoSummaryNode) {
      // Inside an unembeddable optional subtree: stays ⊥.
      image[node] = kNoSummaryNode;
      return Recurse(idx + 1);
    }
    std::vector<SummaryNodeId> candidates =
        SummaryCandidates(p, node, edge.axis, base, s);
    std::erase_if(candidates, [&](SummaryNodeId c) {
      return !SubtreeEmbeds(p, node, c, s);
    });
    for (SummaryNodeId c : candidates) {
      image[node] = c;
      if (!Recurse(idx + 1)) return false;
    }
    image[node] = kNoSummaryNode;
    // An optional subtree with no placement maps to ⊥ and the rest of the
    // pattern may still embed: documents conforming to S never realize it,
    // so dropping the embedding would shrink the canonical model and make
    // containment accept too much.
    if (candidates.empty() && edge.optional()) return Recurse(idx + 1);
    return true;
  }
};

}  // namespace

bool ForEachEmbedding(
    const Xam& p, const PathSummary& summary,
    const std::function<bool(const SummaryEmbedding&)>& fn) {
  Walk walk{p, summary, fn, p.PreOrder(),
            SummaryEmbedding(p.size(), kNoSummaryNode)};
  walk.image[kXamRoot] = summary.document_node();
  return walk.Recurse(1);
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
        if (NodeMatches(pn, summary.node(s))) add(s);
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
  return !ForEachEmbedding(p, summary,
                           [](const SummaryEmbedding&) { return false; });
}

}  // namespace uload
