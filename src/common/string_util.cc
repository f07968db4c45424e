#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace uload {

std::vector<std::string> SplitNonEmpty(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ParseNumber(std::string_view s, double* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  // std::from_chars<double> is available in libstdc++ 11+.
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

bool ContainsWord(std::string_view hay, std::string_view needle) {
  if (needle.empty()) return false;
  size_t pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string_view::npos) {
    bool left_ok = pos == 0 || !IsWordChar(hay[pos - 1]);
    size_t after = pos + needle.size();
    bool right_ok = after == hay.size() || !IsWordChar(hay[after]);
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

}  // namespace uload
