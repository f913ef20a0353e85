// rpqres — regex/parser: recursive-descent parser for the paper's regular
// expression syntax.
//
// Grammar:
//   union   := concat ('|' concat)*
//   concat  := postfix+
//   postfix := atom ('*' | '+' | '?')*
//   atom    := LETTER | '(' union ')'
// LETTER is any alphanumeric character. Whitespace is ignored.

#ifndef RPQRES_REGEX_PARSER_H_
#define RPQRES_REGEX_PARSER_H_

#include <string>

#include "regex/ast.h"
#include "util/status.h"

namespace rpqres {

/// Deepest regex ParseRegex accepts: group nesting plus stacked postfix
/// operators along any path ("((a*))" has depth 3). Parsing and every
/// compile stage after it recurse over the AST, so a deeper input could
/// exhaust the stack.
inline constexpr int kMaxRegexDepth = 1000;

/// Parses a regular expression in the paper's syntax (e.g. "ax*b|cxd").
/// Returns InvalidArgument with a position-annotated message on bad input,
/// including input deeper than kMaxRegexDepth.
Result<Regex> ParseRegex(const std::string& input);

/// Parses a regex that is known to be valid (for literals in tests, benches
/// and examples); aborts on parse failure.
Regex MustParseRegex(const std::string& input);

}  // namespace rpqres

#endif  // RPQRES_REGEX_PARSER_H_
