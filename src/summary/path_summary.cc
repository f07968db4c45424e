#include "summary/path_summary.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/string_util.h"

namespace uload {
namespace {

// Key of a summary child: (parent summary node, label). Node kinds never
// collide because attribute/text labels are mangled ("@a", "#text").
using ChildKey = std::pair<SummaryNodeId, std::string>;

std::string SummaryLabel(const Node& n) {
  if (n.is_attribute()) return "@" + n.label;
  return n.label;  // elements keep their tag, texts are already "#text"
}

}  // namespace

PathSummary PathSummary::Build(Document* doc) {
  PathSummary s;
  s.nodes_.push_back(SummaryNode{
      "#document", NodeKind::kDocument, kNoSummaryNode, {}, EdgeAnnotation::kOne,
      0, 1, 0, 0});
  doc->mutable_node(doc->document_node()).path_id = 0;

  std::map<ChildKey, SummaryNodeId> child_index;

  // First pass: create summary nodes and map document nodes (φ).
  for (NodeIndex i = 1; i < doc->size(); ++i) {
    Node& n = doc->mutable_node(i);
    SummaryNodeId parent_path = doc->node(n.parent).path_id;
    ChildKey key{parent_path, SummaryLabel(n)};
    auto it = child_index.find(key);
    SummaryNodeId id;
    if (it == child_index.end()) {
      id = static_cast<SummaryNodeId>(s.nodes_.size());
      SummaryNode sn;
      sn.label = key.second;
      sn.kind = n.kind;
      sn.parent = parent_path;
      sn.depth = s.nodes_[parent_path].depth + 1;
      s.nodes_.push_back(std::move(sn));
      s.nodes_[parent_path].children.push_back(id);
      child_index.emplace(key, id);
    } else {
      id = it->second;
    }
    n.path_id = id;
    s.nodes_[id].cardinality++;
  }

  // Second pass: edge annotations. For every summary edge (p -> c), compute
  // the minimum and maximum number of c-children over all instances of p.
  // covered[c] counts parent instances with >= 1 such child.
  std::vector<int64_t> covered(s.nodes_.size(), 0);
  std::vector<int64_t> min_count(s.nodes_.size(), INT64_MAX);
  std::vector<int64_t> max_count(s.nodes_.size(), 0);
  {
    // Per-parent-instance counts, reset per document node.
    std::map<SummaryNodeId, int64_t> local;
    for (NodeIndex i = 0; i < doc->size(); ++i) {
      local.clear();
      const NodeIndex end = doc->SubtreeEnd(i);
      for (NodeIndex c = i + 1; c < end; c = doc->SubtreeEnd(c)) {
        local[doc->node(c).path_id]++;
      }
      for (auto& [cid, cnt] : local) {
        covered[cid]++;
        min_count[cid] = std::min(min_count[cid], cnt);
        max_count[cid] = std::max(max_count[cid], cnt);
      }
    }
  }
  for (SummaryNodeId id = 1; id < static_cast<SummaryNodeId>(s.nodes_.size());
       ++id) {
    SummaryNode& sn = s.nodes_[id];
    int64_t parent_instances = s.nodes_[sn.parent].cardinality;
    bool always_present = covered[id] == parent_instances;
    if (always_present && max_count[id] == 1) {
      sn.annotation = EdgeAnnotation::kOne;
      s.one_edges_++;
      s.strong_edges_++;  // one-to-one edges are also strong (>= 1)
    } else if (always_present) {
      sn.annotation = EdgeAnnotation::kPlus;
      s.strong_edges_++;
    } else {
      sn.annotation = EdgeAnnotation::kStar;
    }
  }

  s.BuildIndexes();
  return s;
}

void PathSummary::BuildIndexes() {
  for (SummaryNodeId id = 1; id < static_cast<SummaryNodeId>(nodes_.size());
       ++id) {
    by_label_[nodes_[id].label].push_back(id);
    if (nodes_[id].kind == NodeKind::kElement) element_nodes_.push_back(id);
  }
  by_pre_.assign(nodes_.size(), kNoSummaryNode);
  last_pre_.assign(nodes_.size(), 0);
  uint32_t pre = 0;
  uint32_t post = 0;
  // Iterative DFS from the document node.
  std::vector<std::pair<SummaryNodeId, bool>> stack;
  stack.emplace_back(0, false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      nodes_[id].post = ++post;
      last_pre_[id] = pre;
      continue;
    }
    nodes_[id].pre = ++pre;
    by_pre_[pre - 1] = id;
    stack.emplace_back(id, true);
    const auto& kids = nodes_[id].children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
  for (const auto& [label, ids] : by_label_) {
    std::vector<SummaryNodeId>& sorted = by_label_pre_[label];
    sorted = ids;
    std::sort(sorted.begin(), sorted.end(),
              [this](SummaryNodeId a, SummaryNodeId b) {
                return nodes_[a].pre < nodes_[b].pre;
              });
  }
}

SummaryNodeId PathSummary::root() const {
  for (SummaryNodeId c : nodes_[0].children) {
    if (nodes_[c].kind == NodeKind::kElement) return c;
  }
  return kNoSummaryNode;
}

const std::vector<SummaryNodeId>& PathSummary::NodesWithLabel(
    const std::string& label) const {
  auto it = by_label_.find(label);
  return it == by_label_.end() ? empty_ : it->second;
}

bool PathSummary::IsAncestor(SummaryNodeId a, SummaryNodeId b) const {
  return nodes_[a].pre < nodes_[b].pre && nodes_[b].post < nodes_[a].post;
}

bool PathSummary::IsParent(SummaryNodeId a, SummaryNodeId b) const {
  return nodes_[b].parent == a;
}

std::vector<SummaryNodeId> PathSummary::Descendants(
    SummaryNodeId a, const std::string& label) const {
  std::vector<SummaryNodeId> out;
  const uint32_t first = nodes_[a].pre;  // pre of a; descendants follow it
  const uint32_t last = last_pre_[a];
  if (label.empty()) {
    for (uint32_t pre = first + 1; pre <= last; ++pre) {
      SummaryNodeId id = by_pre_[pre - 1];
      if (nodes_[id].kind != NodeKind::kText) out.push_back(id);
    }
    return out;
  }
  auto it = by_label_pre_.find(label);
  if (it == by_label_pre_.end()) return out;
  const std::vector<SummaryNodeId>& ids = it->second;
  auto pos = std::upper_bound(
      ids.begin(), ids.end(), first,
      [this](uint32_t pre, SummaryNodeId id) { return pre < nodes_[id].pre; });
  for (; pos != ids.end() && nodes_[*pos].pre <= last; ++pos) {
    out.push_back(*pos);
  }
  return out;
}

std::vector<SummaryNodeId> PathSummary::ChildrenWithLabel(
    SummaryNodeId a, const std::string& label) const {
  std::vector<SummaryNodeId> out;
  for (SummaryNodeId c : nodes_[a].children) {
    const SummaryNode& sn = nodes_[c];
    bool matches = label.empty()
                       ? sn.kind != NodeKind::kText
                       : sn.label == label;
    if (matches) out.push_back(c);
  }
  return out;
}

std::string PathSummary::PathString(SummaryNodeId id) const {
  if (id <= 0) return "/";
  std::vector<const std::string*> labels;
  for (SummaryNodeId cur = id; cur > 0; cur = nodes_[cur].parent) {
    labels.push_back(&nodes_[cur].label);
  }
  std::string out;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    out += '/';
    out += **it;
  }
  return out;
}

SummaryNodeId PathSummary::NodeByPath(
    const std::vector<std::string>& labels) const {
  SummaryNodeId cur = 0;
  for (const std::string& label : labels) {
    SummaryNodeId next = kNoSummaryNode;
    for (SummaryNodeId c : nodes_[cur].children) {
      if (nodes_[c].label == label) {
        next = c;
        break;
      }
    }
    if (next == kNoSummaryNode) return kNoSummaryNode;
    cur = next;
  }
  return cur;
}

bool PathSummary::AllOneToOneBetween(SummaryNodeId a, SummaryNodeId b) const {
  if (a == b) return true;
  if (!IsAncestor(a, b)) return false;
  for (SummaryNodeId cur = b; cur != a; cur = nodes_[cur].parent) {
    if (nodes_[cur].annotation != EdgeAnnotation::kOne) return false;
  }
  return true;
}

bool PathSummary::AllStrongBetween(SummaryNodeId a, SummaryNodeId b) const {
  if (a == b) return true;
  if (!IsAncestor(a, b)) return false;
  for (SummaryNodeId cur = b; cur != a; cur = nodes_[cur].parent) {
    if (nodes_[cur].annotation == EdgeAnnotation::kStar) return false;
  }
  return true;
}

bool PathSummary::Conforms(const Document& doc) const {
  // Structural part: every document path must exist in this summary with the
  // same shape. (We rebuild and compare paths; adequate for test usage.)
  Document copy = doc;  // Build annotates path ids; work on a copy
  PathSummary rebuilt = Build(&copy);
  if (rebuilt.size() > size()) return false;
  for (SummaryNodeId id = 1; id < rebuilt.size(); ++id) {
    // Each rebuilt path must exist here.
    std::vector<std::string> labels;
    for (SummaryNodeId cur = id; cur > 0; cur = rebuilt.nodes_[cur].parent) {
      labels.push_back(rebuilt.nodes_[cur].label);
    }
    std::reverse(labels.begin(), labels.end());
    SummaryNodeId here = NodeByPath(labels);
    if (here == kNoSummaryNode) return false;
    // Annotation part: this summary's constraints must hold in doc, i.e. the
    // rebuilt (exact) annotation must be at least as strict as ours.
    auto strictness = [](EdgeAnnotation a) {
      switch (a) {
        case EdgeAnnotation::kStar:
          return 0;
        case EdgeAnnotation::kPlus:
          return 1;
        case EdgeAnnotation::kOne:
          return 2;
      }
      return 0;
    };
    if (strictness(rebuilt.nodes_[id].annotation) <
        strictness(nodes_[here].annotation)) {
      return false;
    }
  }
  return true;
}

std::string PathSummary::Serialize() const {
  std::string out = "summary " + std::to_string(nodes_.size()) + "\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const SummaryNode& n = nodes_[i];
    out += std::to_string(i) + " " + std::to_string(n.parent) + " " +
           std::to_string(static_cast<int>(n.kind)) + " " +
           std::to_string(static_cast<int>(n.annotation)) + " " +
           std::to_string(n.cardinality) + " " + n.label + "\n";
  }
  return out;
}

Result<PathSummary> PathSummary::Deserialize(std::string_view text) {
  PathSummary s;
  s.nodes_.clear();
  size_t pos = 0;
  auto next_line = [&]() -> std::string_view {
    if (pos >= text.size()) return {};
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };
  std::string_view header = next_line();
  if (header.rfind("summary ", 0) != 0) {
    return Status::ParseError("missing summary header");
  }
  long count = std::strtol(std::string(header.substr(8)).c_str(), nullptr, 10);
  if (count <= 0) return Status::ParseError("bad summary node count");
  for (long i = 0; i < count; ++i) {
    std::string line(next_line());
    if (line.empty()) return Status::ParseError("truncated summary");
    // id parent kind annot cardinality label (label may contain no spaces).
    long id, parent, kind, annot;
    long long card;
    char label[256] = {0};
    if (std::sscanf(line.c_str(), "%ld %ld %ld %ld %lld %255s", &id, &parent,
                    &kind, &annot, &card, label) < 5) {
      return Status::ParseError("bad summary line: " + line);
    }
    if (id != static_cast<long>(s.nodes_.size())) {
      return Status::ParseError("summary nodes out of order");
    }
    SummaryNode n;
    n.parent = static_cast<SummaryNodeId>(parent);
    n.kind = static_cast<NodeKind>(kind);
    n.annotation = static_cast<EdgeAnnotation>(annot);
    n.cardinality = card;
    n.label = label;
    n.depth = parent >= 0 ? s.nodes_[parent].depth + 1 : 0;
    s.nodes_.push_back(std::move(n));
    if (parent >= 0) {
      s.nodes_[parent].children.push_back(
          static_cast<SummaryNodeId>(id));
    }
  }
  for (SummaryNodeId id = 1; id < static_cast<SummaryNodeId>(s.nodes_.size());
       ++id) {
    const SummaryNode& n = s.nodes_[id];
    if (n.annotation != EdgeAnnotation::kStar) s.strong_edges_++;
    if (n.annotation == EdgeAnnotation::kOne) s.one_edges_++;
  }
  s.BuildIndexes();
  return s;
}

}  // namespace uload
