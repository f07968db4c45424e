// Small string helpers shared across modules.
#ifndef ULOAD_COMMON_STRING_UTIL_H_
#define ULOAD_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace uload {

// Splits `s` on `sep`, omitting empty pieces.
std::vector<std::string> SplitNonEmpty(std::string_view s, char sep);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// True if `s` parses completely as a (possibly signed, possibly fractional)
// decimal number; stores it in *out.
bool ParseNumber(std::string_view s, double* out);

// Escapes '&', '<', '>', '"' for embedding in XML text/attribute content.
std::string XmlEscape(std::string_view s);

// True if `hay` contains `needle` as a whitespace/punctuation-delimited word
// (case-sensitive). Used by the full-text `contains` operator.
bool ContainsWord(std::string_view hay, std::string_view needle);

}  // namespace uload

#endif  // ULOAD_COMMON_STRING_UTIL_H_
