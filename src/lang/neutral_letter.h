// rpqres — lang/neutral_letter: neutral letters (Section 5.2).
//
// e is neutral for L if for all α, β: αβ ∈ L ⟺ αeβ ∈ L. Under this
// assumption the paper proves a full dichotomy (Prp 5.7): IF(L) local ⇒
// PTIME, otherwise NP-hard.

#ifndef RPQRES_LANG_NEUTRAL_LETTER_H_
#define RPQRES_LANG_NEUTRAL_LETTER_H_

#include <vector>

#include "lang/language.h"

namespace rpqres {

/// True iff `e` is a neutral letter of L: L is closed under inserting `e`
/// at any position and under deleting any occurrence of `e`. Decided on
/// the minimal DFA: every state loops on `e`.
bool IsNeutralLetter(const Language& lang, char e);

/// All neutral letters among the used letters of L.
std::vector<char> NeutralLetters(const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_NEUTRAL_LETTER_H_
