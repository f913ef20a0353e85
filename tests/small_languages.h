// Test helper: the exhaustive small-language corpus — every language of
// one or two words of length <= 3 over {a, b, c} (39 + 741 = 780
// languages). Shared by the classifier sweep and the reference
// cross-check of the minimal-DFA property tests.

#ifndef RPQRES_TESTS_SMALL_LANGUAGES_H_
#define RPQRES_TESTS_SMALL_LANGUAGES_H_

#include <string>
#include <vector>

namespace rpqres {

/// The 3 + 9 + 27 = 39 words of length 1..3 over {a, b, c}.
inline std::vector<std::string> AllSmallWords() {
  const std::vector<char> sigma = {'a', 'b', 'c'};
  std::vector<std::string> words;
  for (char x : sigma) words.push_back(std::string(1, x));
  size_t one = words.size();
  for (size_t i = 0; i < one; ++i) {
    for (char x : sigma) words.push_back(words[i] + x);
  }
  size_t two = words.size();
  for (size_t i = one; i < two; ++i) {
    for (char x : sigma) words.push_back(words[i] + x);
  }
  return words;
}

/// Calls `fn(word_list)` once per corpus language.
template <typename Fn>
void ForEachSmallLanguage(Fn fn) {
  std::vector<std::string> words = AllSmallWords();
  for (size_t i = 0; i < words.size(); ++i) {
    fn(std::vector<std::string>{words[i]});
    for (size_t j = i + 1; j < words.size(); ++j) {
      fn(std::vector<std::string>{words[i], words[j]});
    }
  }
}

}  // namespace rpqres

#endif  // RPQRES_TESTS_SMALL_LANGUAGES_H_
