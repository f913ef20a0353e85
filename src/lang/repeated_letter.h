// rpqres — lang/repeated_letter: words with repeated letters (Section 6).
//
// Theorem 6.1: a finite infix-free language containing a word with a
// repeated letter has NP-complete resilience. The proof machinery picks a
// *maximal-gap* word (Def 6.4), which we also expose for the gadget
// constructions.

#ifndef RPQRES_LANG_REPEATED_LETTER_H_
#define RPQRES_LANG_REPEATED_LETTER_H_

#include <optional>
#include <string>
#include <vector>

#include "lang/language.h"

namespace rpqres {

/// Decomposition of a word β a γ a δ around a repeated letter.
struct RepeatedLetterWord {
  std::string word;   ///< the full word βaγaδ
  char letter = '\0'; ///< the repeated letter a
  size_t first_pos = 0;   ///< index of the first a
  size_t second_pos = 0;  ///< index of the second a (gap = second-first-1)

  std::string beta() const { return word.substr(0, first_pos); }
  std::string gamma() const {
    return word.substr(first_pos + 1, second_pos - first_pos - 1);
  }
  std::string delta() const { return word.substr(second_pos + 1); }
  size_t gap() const { return second_pos - first_pos - 1; }
};

/// True iff some word of L (finite or infinite) repeats some letter,
/// decided on the minimal DFA: for some letter a, a useful a-transition
/// reaches the source of a useful a-transition.
bool HasRepeatedLetterWord(const Language& lang);

/// Finds the positions of a repeated letter in `word` maximizing the gap;
/// nullopt if all letters are distinct.
std::optional<RepeatedLetterWord> BestRepeatInWord(const std::string& word);

/// A maximal-gap word (Def 6.4) among the words of a finite language, as
/// listed by Language::Words(): maximize the gap γ between the repeated
/// letters, then the total word length; ties keep the first word listed.
/// nullopt iff no word repeats a letter.
std::optional<RepeatedLetterWord> FindMaximalGapWord(
    const std::vector<std::string>& words);

}  // namespace rpqres

#endif  // RPQRES_LANG_REPEATED_LETTER_H_
