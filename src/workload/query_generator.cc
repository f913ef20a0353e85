#include "workload/query_generator.h"

#include <utility>
#include <vector>

#include "lang/language.h"
#include "regex/parser.h"
#include "util/check.h"

namespace rpqres {
namespace workload {
namespace {

/// `count` distinct letters, a uniformly random subset of a..f in random
/// order (partial Fisher–Yates).
std::vector<char> PickDistinctLetters(Rng* rng, int count) {
  std::vector<char> pool = {'a', 'b', 'c', 'd', 'e', 'f'};
  RPQRES_CHECK(count >= 1 && count <= static_cast<int>(pool.size()));
  for (int i = 0; i < count; ++i) {
    size_t j = i + rng->NextBelow(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(count);
  return pool;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out += '|';
    out += w;
  }
  return out;
}

/// Templates around the a x* b shape of Thm 3.13: starred or plussed
/// middles between distinct endpoint letters, plus the degenerate local
/// shapes (letter unions, a single two-letter word).
std::string LocalCandidate(Rng* rng) {
  switch (rng->NextBelow(5)) {
    case 0: {  // p m* s
      std::vector<char> l = PickDistinctLetters(rng, 3);
      return std::string{l[0]} + l[1] + "*" + l[2];
    }
    case 1: {  // p (m1|m2)* s
      std::vector<char> l = PickDistinctLetters(rng, 4);
      return std::string{l[0]} + "(" + l[1] + "|" + l[2] + ")*" + l[3];
    }
    case 2: {  // union of 1..3 single letters
      std::vector<char> l =
          PickDistinctLetters(rng, 1 + static_cast<int>(rng->NextBelow(3)));
      std::vector<std::string> words;
      for (char c : l) words.emplace_back(1, c);
      return JoinWords(words);
    }
    case 3: {  // p m+ s
      std::vector<char> l = PickDistinctLetters(rng, 3);
      return std::string{l[0]} + l[1] + "+" + l[2];
    }
    default: {  // p m* s | q m* t (shared middle)
      std::vector<char> l = PickDistinctLetters(rng, 5);
      return std::string{l[0]} + l[1] + "*" + l[2] + "|" + l[3] + l[1] + "*" +
             l[4];
    }
  }
}

/// Unions of consecutive two-letter links over a random chain of distinct
/// letters, the Prp 7.6 shape (ab|bc, ab|bc|cd, ...).
std::string BclCandidate(Rng* rng) {
  int chain = 3 + static_cast<int>(rng->NextBelow(3));  // 3..5 letters
  std::vector<char> l = PickDistinctLetters(rng, chain);
  std::vector<std::string> words;
  for (int i = 0; i + 1 < chain; ++i) {
    words.push_back(std::string{l[i]} + l[i + 1]);
  }
  // Optionally drop one link of a long chain (still a chain family).
  if (words.size() > 2 && rng->NextChance(1, 3)) {
    words.erase(words.begin() + rng->NextBelow(words.size()));
  }
  return JoinWords(words);
}

/// A base word plus one word dangling off an interior letter (abc|be, the
/// Prp 7.9 shape), sometimes mirrored (Prp 6.3 closes the class under
/// mirroring).
std::string OneDanglingCandidate(Rng* rng) {
  int base_len = 3 + static_cast<int>(rng->NextBelow(2));  // 3..4 letters
  std::vector<char> l = PickDistinctLetters(rng, base_len + 1);
  std::string base(l.begin(), l.begin() + base_len);
  char fresh = l[base_len];
  // Dangle off an interior letter of the base word.
  size_t at = 1 + rng->NextBelow(base_len - 2 > 0 ? base_len - 2 : 1);
  std::string dangling = std::string{base[at]} + fresh;
  std::string regex = base + "|" + dangling;
  if (rng->NextChance(1, 2)) {
    std::string mirrored(regex.rbegin(), regex.rend());  // reverses words too
    return mirrored;
  }
  return regex;
}

/// Known-hard shapes: repeated-letter finite words (Thm 6.1), the renamed
/// triangle ab|bc|ca (Prp 7.4), the renamed abcd|be|ef (Prp 7.11), and
/// non-star-free even-counting middles (Lem 5.6).
std::string HardCandidate(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0: {  // word with a forced repeated letter
      int len = 2 + static_cast<int>(rng->NextBelow(3));  // 2..4
      std::vector<char> l = PickDistinctLetters(rng, len - 1 > 0 ? len - 1 : 1);
      std::string word;
      size_t repeat_src = rng->NextBelow(l.size());
      for (int i = 0; i + 1 < len; ++i) word += l[i];
      // Insert a second copy of one letter at a random position.
      word.insert(word.begin() + rng->NextBelow(word.size() + 1),
                  l[repeat_src]);
      return word;
    }
    case 1: {  // triangle ab|bc|ca, renamed
      std::vector<char> l = PickDistinctLetters(rng, 3);
      return std::string{l[0]} + l[1] + "|" + l[1] + l[2] + "|" + l[2] + l[0];
    }
    case 2: {  // abcd|be|ef, renamed
      std::vector<char> l = PickDistinctLetters(rng, 6);
      return std::string{l[0]} + l[1] + l[2] + l[3] + "|" + l[1] + l[4] + "|" +
             l[4] + l[5];
    }
    default: {  // p (mm)* s — even counting, non-star-free
      std::vector<char> l = PickDistinctLetters(rng, 3);
      return std::string{l[0]} + "(" + l[1] + l[1] + ")*" + l[2];
    }
  }
}

/// One random letter-level edit that keeps the regex syntactically valid:
/// substitute, duplicate, delete a letter, or union in a fresh short word.
std::string MutateRegex(Rng* rng, const std::string& regex) {
  std::vector<size_t> letter_positions;
  for (size_t i = 0; i < regex.size(); ++i) {
    if (std::isalnum(static_cast<unsigned char>(regex[i]))) {
      letter_positions.push_back(i);
    }
  }
  std::string mutated = regex;
  switch (rng->NextBelow(4)) {
    case 0: {  // substitute one letter
      size_t at = letter_positions[rng->NextBelow(letter_positions.size())];
      mutated[at] = PickDistinctLetters(rng, 1)[0];
      return mutated;
    }
    case 1: {  // duplicate one letter in place
      size_t at = letter_positions[rng->NextBelow(letter_positions.size())];
      mutated.insert(mutated.begin() + at, mutated[at]);
      return mutated;
    }
    case 2: {  // delete one letter, unless a postfix operator follows it
      size_t at = letter_positions[rng->NextBelow(letter_positions.size())];
      bool starred = at + 1 < mutated.size() &&
                     (mutated[at + 1] == '*' || mutated[at + 1] == '+' ||
                      mutated[at + 1] == '?');
      if (letter_positions.size() > 1 && !starred) {
        mutated.erase(mutated.begin() + at);
        return mutated;
      }
      [[fallthrough]];
    }
    default: {  // union in a fresh word of length 1..2
      std::vector<char> l = PickDistinctLetters(rng, 2);
      std::string word(1, l[0]);
      if (rng->NextChance(1, 2)) word += l[1];
      return mutated + "|" + word;
    }
  }
}

std::string CandidateFor(Rng* rng, QueryClass target) {
  switch (target) {
    case QueryClass::kLocal:
      return LocalCandidate(rng);
    case QueryClass::kBcl:
      return BclCandidate(rng);
    case QueryClass::kOneDangling:
      return OneDanglingCandidate(rng);
    case QueryClass::kHard:
      return HardCandidate(rng);
    case QueryClass::kBoundary: {
      // Mutate a draw from a random concrete class by one edit; the
      // result lands wherever it lands (often right across a boundary).
      QueryClass base = kAllQueryClasses[rng->NextBelow(4)];
      return MutateRegex(rng, CandidateFor(rng, base));
    }
  }
  RPQRES_CHECK(false);
  return "";
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kLocal:
      return "local";
    case QueryClass::kBcl:
      return "bcl";
    case QueryClass::kOneDangling:
      return "one-dangling";
    case QueryClass::kHard:
      return "hard";
    case QueryClass::kBoundary:
      return "boundary";
  }
  return "?";
}

bool MatchesQueryClass(QueryClass target,
                       const Classification& classification) {
  switch (target) {
    case QueryClass::kLocal:
      return classification.complexity == ComplexityClass::kPtime &&
             classification.rule.find("local") != std::string::npos;
    case QueryClass::kBcl:
      return classification.complexity == ComplexityClass::kPtime &&
             classification.rule.find("bipartite chain") != std::string::npos;
    case QueryClass::kOneDangling:
      return classification.complexity == ComplexityClass::kPtime &&
             classification.rule.find("one-dangling") != std::string::npos;
    case QueryClass::kHard:
      return classification.complexity == ComplexityClass::kNpHard;
    case QueryClass::kBoundary:
      return true;
  }
  return false;
}

Result<GeneratedQuery> GenerateQuery(Rng* rng, QueryClass target,
                                     int max_attempts) {
  std::string last_rejected;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    std::string candidate = CandidateFor(rng, target);
    Result<Language> lang = Language::FromRegexString(candidate);
    if (!lang.ok()) continue;  // a mutation produced invalid syntax
    Result<Classification> classification = ClassifyResilience(*lang);
    if (!classification.ok()) continue;
    if (MatchesQueryClass(target, *classification)) {
      GeneratedQuery out;
      out.regex = std::move(candidate);
      out.target = target;
      out.classification = *std::move(classification);
      out.attempts = attempt;
      return out;
    }
    last_rejected = std::move(candidate);
  }
  return Status::Internal(
      std::string("no candidate hit query class ") + QueryClassName(target) +
      " after " + std::to_string(max_attempts) +
      " attempts (last rejected: " + last_rejected + ")");
}

}  // namespace workload
}  // namespace rpqres
