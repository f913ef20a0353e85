// Tests for the regex AST and parser.

#include <gtest/gtest.h>

#include <string>

#include "engine/compiled_query.h"
#include "regex/ast.h"
#include "regex/parser.h"

namespace rpqres {
namespace {

TEST(RegexAstTest, FactoriesSimplify) {
  EXPECT_EQ(Regex::Concat({}).kind, RegexKind::kEpsilon);
  EXPECT_EQ(Regex::Union({}).kind, RegexKind::kEmptySet);
  EXPECT_EQ(Regex::Concat({Regex::Literal('a')}).kind, RegexKind::kLiteral);
  // ∅ absorbs concatenation.
  EXPECT_EQ(Regex::Concat({Regex::Literal('a'), Regex::EmptySet()}).kind,
            RegexKind::kEmptySet);
  // ε is concatenation identity.
  Regex r = Regex::Concat({Regex::Epsilon(), Regex::Literal('a')});
  EXPECT_EQ(r.kind, RegexKind::kLiteral);
  // star of ε / ∅ is ε.
  EXPECT_EQ(Regex::Star(Regex::Epsilon()).kind, RegexKind::kEpsilon);
  EXPECT_EQ(Regex::Star(Regex::EmptySet()).kind, RegexKind::kEpsilon);
}

TEST(RegexAstTest, FromWordAndToString) {
  EXPECT_EQ(Regex::FromWord("abc").ToString(), "abc");
  EXPECT_EQ(Regex::FromWord("").ToString(), "ε");
  EXPECT_EQ(Regex::FromWords({"ab", "cd"}).ToString(), "ab|cd");
}

TEST(RegexAstTest, AlphabetSortedUnique) {
  Regex r = MustParseRegex("ax*b|cxd");
  EXPECT_EQ(r.Alphabet(), (std::vector<char>{'a', 'b', 'c', 'd', 'x'}));
}

TEST(RegexParserTest, ParsesPaperExamples) {
  for (const char* s :
       {"aa", "ax*b", "ab|ad|cd", "axb|cxd", "b(aa)*d", "ab|bc|ca",
        "abcd|be|ef", "abcd|bef", "ax*b|xd", "ab*d|ac*d|bc", "a(b|c)d",
        "x+", "ab?"}) {
    Result<Regex> r = ParseRegex(s);
    ASSERT_TRUE(r.ok()) << s << ": " << r.status();
  }
}

TEST(RegexParserTest, RoundTripsThroughToString) {
  for (const char* s : {"ax*b", "ab|ad|cd", "axb|cxd", "b(aa)*d"}) {
    Regex first = MustParseRegex(s);
    Regex second = MustParseRegex(first.ToString());
    EXPECT_EQ(first, second) << s;
  }
}

TEST(RegexParserTest, PrecedenceUnionBindsLoosest) {
  // ab|cd* is (ab)|(c(d*)).
  Regex r = MustParseRegex("ab|cd*");
  ASSERT_EQ(r.kind, RegexKind::kUnion);
  ASSERT_EQ(r.children.size(), 2u);
  EXPECT_EQ(r.children[0].ToString(), "ab");
  EXPECT_EQ(r.children[1].ToString(), "cd*");
}

TEST(RegexParserTest, ParenthesesGroup) {
  Regex r = MustParseRegex("(ab|c)d");
  ASSERT_EQ(r.kind, RegexKind::kConcat);
  EXPECT_EQ(r.ToString(), "(ab|c)d");
}

TEST(RegexParserTest, WhitespaceIgnored) {
  EXPECT_EQ(MustParseRegex(" a x * b "), MustParseRegex("ax*b"));
}

TEST(RegexParserTest, Digits) {
  Regex r = MustParseRegex("a1|b2");
  EXPECT_EQ(r.Alphabet(), (std::vector<char>{'1', '2', 'a', 'b'}));
}

TEST(RegexParserTest, RejectsBadInput) {
  for (const char* s : {"", "|a", "a|", "(ab", "ab)", "*a", "a**b|(",
                        "a!b"}) {
    Result<Regex> r = ParseRegex(s);
    EXPECT_FALSE(r.ok()) << "should reject: " << s;
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(RegexParserTest, DoubleStarAllowed) {
  // a** parses as (a*)* — harmless.
  EXPECT_TRUE(ParseRegex("a**").ok());
}

TEST(RegexParserTest, DepthIsBoundedAtParseTime) {
  auto nested = [](int groups, int stars) {
    return std::string(groups, '(') + "a" + std::string(groups, ')') +
           std::string(stars, '*');
  };
  const int half = kMaxRegexDepth / 2;
  // Exactly at the limit: parse and compile.
  for (const std::string& at_limit :
       {nested(kMaxRegexDepth, 0), nested(0, kMaxRegexDepth),
        nested(half, kMaxRegexDepth - half)}) {
    EXPECT_TRUE(ParseRegex(at_limit).ok());
    EXPECT_TRUE(CompileQuery(at_limit, Semantics::kSet).ok());
  }
  // One past it, and the inputs that once overflowed the stack: 10 000
  // nested groups in ParseRegex, 100 000 stacked stars in CompileQuery.
  for (const std::string& too_deep :
       {nested(kMaxRegexDepth + 1, 0), nested(0, kMaxRegexDepth + 1),
        nested(half, kMaxRegexDepth - half + 1), nested(10'000, 0)}) {
    EXPECT_EQ(ParseRegex(too_deep).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(CompileQuery(nested(0, 100'000), Semantics::kSet).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rpqres
