#include "lang/repeated_letter.h"

#include <vector>

#include "automata/ops.h"

namespace rpqres {

bool HasRepeatedLetterWord(const Language& lang) {
  // Some word βaγaδ ∈ L iff, for some letter a, a useful a-transition
  // p -a-> p' reaches the source r of a useful a-transition r -a-> r'
  // (p' = r allowed). Paths between useful states stay useful, so one
  // multi-source DFS over the useful states per letter decides it.
  const Dfa& a = lang.min_dfa();
  const int n = a.num_states();
  std::vector<bool> useful = UsefulStates(a);
  for (int letter = 0; letter < static_cast<int>(a.alphabet().size());
       ++letter) {
    // second_a[s]: s is useful and has a useful a-successor.
    std::vector<bool> second_a(n, false), seen(n, false);
    std::vector<int> stack;
    for (int s = 0; s < n; ++s) {
      if (!useful[s]) continue;
      int to = a.NextByIndex(s, letter);
      if (!useful[to]) continue;
      second_a[s] = true;
      if (!seen[to]) {
        seen[to] = true;
        stack.push_back(to);
      }
    }
    while (!stack.empty()) {
      int s = stack.back();
      stack.pop_back();
      if (second_a[s]) return true;
      for (int i = 0; i < static_cast<int>(a.alphabet().size()); ++i) {
        int to = a.NextByIndex(s, i);
        if (useful[to] && !seen[to]) {
          seen[to] = true;
          stack.push_back(to);
        }
      }
    }
  }
  return false;
}

std::optional<RepeatedLetterWord> BestRepeatInWord(const std::string& word) {
  std::optional<RepeatedLetterWord> best;
  for (size_t i = 0; i < word.size(); ++i) {
    for (size_t j = i + 1; j < word.size(); ++j) {
      if (word[i] != word[j]) continue;
      if (!best || j - i - 1 > best->gap()) {
        best = RepeatedLetterWord{word, word[i], i, j};
      }
    }
  }
  return best;
}

std::optional<RepeatedLetterWord> FindMaximalGapWord(
    const std::vector<std::string>& words) {
  std::optional<RepeatedLetterWord> best;
  for (const std::string& word : words) {
    std::optional<RepeatedLetterWord> candidate = BestRepeatInWord(word);
    if (!candidate) continue;
    if (!best || candidate->gap() > best->gap() ||
        (candidate->gap() == best->gap() &&
         candidate->word.size() > best->word.size())) {
      best = candidate;
    }
  }
  return best;
}

}  // namespace rpqres
