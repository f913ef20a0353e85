#include "lang/language.h"

#include <algorithm>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "regex/parser.h"
#include "util/check.h"
#include "util/strings.h"

namespace rpqres {

Language::Language(Enfa enfa, Dfa min_dfa, std::string description)
    : enfa_(std::move(enfa)),
      min_dfa_(std::move(min_dfa)),
      description_(std::move(description)) {
  // Letters occurring in words of L = labels of transitions between useful
  // states. The alphabet is sorted, so the letters come out sorted.
  std::vector<bool> useful = UsefulStates(min_dfa_);
  for (size_t i = 0; i < min_dfa_.alphabet().size(); ++i) {
    for (int s = 0; s < min_dfa_.num_states(); ++s) {
      if (useful[s] && useful[min_dfa_.NextByIndex(s, static_cast<int>(i))]) {
        used_letters_.push_back(min_dfa_.alphabet()[i]);
        break;
      }
    }
  }
}

Result<Language> Language::FromRegexString(const std::string& regex) {
  RPQRES_ASSIGN_OR_RETURN(Regex ast, ParseRegex(regex));
  Language lang = FromRegex(ast);
  lang.set_description(regex);
  return lang;
}

Language Language::MustFromRegexString(const std::string& regex) {
  Result<Language> result = FromRegexString(regex);
  RPQRES_CHECK_MSG(result.ok(), "MustFromRegexString(\"" + regex +
                                    "\"): " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

Language Language::FromRegex(const Regex& regex) {
  Enfa enfa = ThompsonEnfa(regex);
  Dfa min_dfa = MinimalDfa(enfa);
  return Language(std::move(enfa), std::move(min_dfa), regex.ToString());
}

Language Language::FromEnfa(const Enfa& enfa) {
  Dfa min_dfa = MinimalDfa(enfa);
  return Language(enfa, std::move(min_dfa),
                  "<εNFA with " + std::to_string(enfa.num_states()) +
                      " states>");
}

Language Language::FromDfa(const Dfa& dfa) {
  Dfa min_dfa = Minimize(dfa);
  // The trimmed εNFA keeps only useful states; when ε ∈ L the initial state
  // is final, hence useful, so no accepting behaviour is lost.
  Enfa enfa = EnfaTrim(DfaToEnfa(min_dfa));
  return Language(std::move(enfa), std::move(min_dfa),
                  "<DFA with " + std::to_string(dfa.num_states()) +
                      " states>");
}

Language Language::FromWords(const std::vector<std::string>& words) {
  Language lang = FromEnfa(EnfaFromWords(words));
  std::vector<std::string> shown;
  for (const std::string& w : words) shown.push_back(DisplayWord(w));
  lang.set_description(shown.empty() ? "∅" : Join(shown, "|"));
  return lang;
}

bool Language::IsEmpty() const { return DfaIsEmptyLanguage(min_dfa_); }

bool Language::ContainsEpsilon() const { return min_dfa_.Accepts(""); }

bool Language::IsFinite() const { return DfaIsFinite(min_dfa_); }

Result<std::vector<std::string>> Language::Words(size_t max_words) const {
  return EnumerateFiniteLanguage(min_dfa_, max_words);
}

Result<std::vector<std::string>> Language::WordsUpTo(int max_length,
                                                     size_t max_words) const {
  return WordsUpToLength(min_dfa_, max_length, max_words);
}

std::optional<std::string> Language::ShortestWord() const {
  return rpqres::ShortestWord(min_dfa_);
}

Language Language::Mirror() const {
  Language mirrored = FromEnfa(EnfaMirror(enfa_));
  mirrored.set_description("mirror(" + description_ + ")");
  return mirrored;
}

bool Language::EquivalentTo(const Language& other) const {
  return AreEquivalent(min_dfa_, other.min_dfa_);
}

}  // namespace rpqres
