#include "lang/neutral_letter.h"

namespace rpqres {

bool IsNeutralLetter(const Language& lang, char e) {
  // e is neutral iff α⁻¹L = (αe)⁻¹L for every α. The minimal DFA has one
  // state per residual and every state is reachable, so that is δ(q, e) = q
  // for every state q. A letter outside the alphabet leads every word out
  // of L, which keeps the residuals only when L = ∅.
  const Dfa& dfa = lang.min_dfa();
  int e_index = dfa.SymbolIndex(e);
  if (e_index < 0) return lang.IsEmpty();
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.NextByIndex(q, e_index) != q) return false;
  }
  return true;
}

std::vector<char> NeutralLetters(const Language& lang) {
  std::vector<char> out;
  for (char e : lang.used_letters()) {
    if (IsNeutralLetter(lang, e)) out.push_back(e);
  }
  return out;
}

}  // namespace rpqres
