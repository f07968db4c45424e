#include "xml/serialize.h"

#include "common/string_util.h"

namespace uload {
namespace {

// Children are walked by hopping subtree ends (DocumentStore::SubtreeEnd);
// attributes come first among an element's children.
void SerializeRec(const DocumentStore& doc, NodeIndex i, std::string* out) {
  switch (doc.kind(i)) {
    case NodeKind::kText:
      *out += XmlEscape(doc.Value(i));
      return;
    case NodeKind::kAttribute:
      *out += doc.label(i);
      *out += "=\"";
      *out += XmlEscape(doc.Value(i));
      *out += '"';
      return;
    case NodeKind::kDocument:
    case NodeKind::kElement:
      break;
  }
  const NodeIndex end = doc.SubtreeEnd(i);
  NodeIndex c = i + 1;
  if (doc.kind(i) == NodeKind::kDocument) {
    for (; c < end; c = doc.SubtreeEnd(c)) SerializeRec(doc, c, out);
    return;
  }
  *out += '<';
  *out += doc.label(i);
  for (; c < end && doc.is_attribute(c); c = doc.SubtreeEnd(c)) {
    *out += ' ';
    SerializeRec(doc, c, out);
  }
  if (c == end) {
    *out += "/>";
    return;
  }
  *out += '>';
  for (; c < end; c = doc.SubtreeEnd(c)) SerializeRec(doc, c, out);
  *out += "</";
  *out += doc.label(i);
  *out += '>';
}

}  // namespace

std::string SerializeSubtree(const DocumentStore& doc, NodeIndex i) {
  std::string out;
  SerializeRec(doc, i, &out);
  return out;
}

std::string DocumentStore::Content(NodeIndex i) const {
  return SerializeSubtree(*this, i);
}

}  // namespace uload
