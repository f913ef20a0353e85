#include "regex/parser.h"

#include <algorithm>
#include <cctype>

#include "util/check.h"

namespace rpqres {
namespace {

/// Recursive-descent parser over a character buffer. Every Parse*
/// method reports the depth of what it parsed in *depth: group nesting
/// plus stacked postfix operators, bounded by kMaxRegexDepth.
class Parser {
 public:
  explicit Parser(const std::string& input) : input_(input) {}

  Result<Regex> Parse() {
    int depth = 0;
    RPQRES_ASSIGN_OR_RETURN(Regex r, ParseUnion(&depth));
    SkipSpace();
    if (pos_ != input_.size()) {
      return Error("unexpected character '" + std::string(1, input_[pos_]) +
                   "'");
    }
    return r;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("regex parse error at position " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool AtAtomStart() {
    SkipSpace();
    if (pos_ >= input_.size()) return false;
    char c = input_[pos_];
    return std::isalnum(static_cast<unsigned char>(c)) || c == '(';
  }

  Status DepthError() const {
    return Error("nesting deeper than " + std::to_string(kMaxRegexDepth) +
                 " (groups plus stacked postfix operators)");
  }

  Result<Regex> ParseUnion(int* depth) {
    std::vector<Regex> parts;
    RPQRES_ASSIGN_OR_RETURN(Regex first, ParseConcat(depth));
    parts.push_back(std::move(first));
    SkipSpace();
    while (pos_ < input_.size() && input_[pos_] == '|') {
      ++pos_;
      int next_depth = 0;
      RPQRES_ASSIGN_OR_RETURN(Regex next, ParseConcat(&next_depth));
      parts.push_back(std::move(next));
      *depth = std::max(*depth, next_depth);
      SkipSpace();
    }
    return Regex::Union(std::move(parts));
  }

  Result<Regex> ParseConcat(int* depth) {
    if (!AtAtomStart()) return Error("expected a letter or '('");
    std::vector<Regex> parts;
    *depth = 0;
    while (AtAtomStart()) {
      int next_depth = 0;
      RPQRES_ASSIGN_OR_RETURN(Regex next, ParsePostfix(&next_depth));
      parts.push_back(std::move(next));
      *depth = std::max(*depth, next_depth);
    }
    return Regex::Concat(std::move(parts));
  }

  Result<Regex> ParsePostfix(int* depth) {
    RPQRES_ASSIGN_OR_RETURN(Regex r, ParseAtom(depth));
    SkipSpace();
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '*') {
        r = Regex::Star(std::move(r));
      } else if (c == '+') {
        r = Regex::Plus(std::move(r));
      } else if (c == '?') {
        r = Regex::Optional(std::move(r));
      } else {
        break;
      }
      if (++*depth > kMaxRegexDepth) return DepthError();
      ++pos_;
      SkipSpace();
    }
    return r;
  }

  Result<Regex> ParseAtom(int* depth) {
    SkipSpace();
    if (pos_ >= input_.size()) return Error("unexpected end of input");
    char c = input_[pos_];
    if (std::isalnum(static_cast<unsigned char>(c))) {
      ++pos_;
      *depth = 0;
      return Regex::Literal(c);
    }
    if (c == '(') {
      // Checked before recursing, so an unbounded run of '(' cannot
      // exhaust the stack.
      if (open_groups_ == kMaxRegexDepth) return DepthError();
      ++pos_;
      ++open_groups_;
      RPQRES_ASSIGN_OR_RETURN(Regex inner, ParseUnion(depth));
      --open_groups_;
      if (++*depth > kMaxRegexDepth) return DepthError();
      SkipSpace();
      if (pos_ >= input_.size() || input_[pos_] != ')') {
        return Error("expected ')'");
      }
      ++pos_;
      return inner;
    }
    return Error("unexpected character '" + std::string(1, c) + "'");
  }

  const std::string& input_;
  size_t pos_ = 0;
  int open_groups_ = 0;
};

}  // namespace

Result<Regex> ParseRegex(const std::string& input) {
  return Parser(input).Parse();
}

Regex MustParseRegex(const std::string& input) {
  Result<Regex> result = ParseRegex(input);
  RPQRES_CHECK_MSG(result.ok(), "MustParseRegex(\"" + input +
                                    "\"): " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

}  // namespace rpqres
