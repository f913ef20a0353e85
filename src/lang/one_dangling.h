// rpqres — lang/one_dangling: one-dangling languages (Def 7.8).
//
// A one-dangling language is L₀ ∪ {xy} where L₀ is local over an alphabet
// Σ and x ≠ y with at least one of x, y outside Σ. Prp 7.9 gives a PTIME
// resilience algorithm by rewriting to a local-language instance.
//
// The definition is symmetric under mirroring: local languages are closed
// under reversal, xy ∈ L iff yx ∈ mirror(L), and Σ(mirror(L₀)) = Σ(L₀).
// So mirror(L) has a decomposition iff L has one, and callers never need
// to search the mirror; Prp 6.3's mirror is only the Prp 7.9 solver's way
// to put the fresh letter last.

#ifndef RPQRES_LANG_ONE_DANGLING_H_
#define RPQRES_LANG_ONE_DANGLING_H_

#include <optional>

#include "lang/language.h"

namespace rpqres {

/// A decomposition L = base ∪ {xy} witnessing that L is one-dangling.
struct OneDanglingDecomposition {
  char x = '\0';
  char y = '\0';
  Language base;        ///< L₀ = L \ {xy}, a local language
  bool x_in_base = false;  ///< whether x occurs in words of L₀
  bool y_in_base = false;  ///< whether y occurs in words of L₀ (not both)
};

/// Searches for a one-dangling decomposition of L (Def 7.8): a two-letter
/// word xy ∈ L, x ≠ y, such that L \ {xy} is local and x or y does not
/// occur in L \ {xy}. Candidates are tried in (length, lexicographic)
/// order. Freshness is read off L's minimal DFA, and L \ {xy} is built only
/// for a candidate with a fresh letter, by cutting xy's one accepting run.
/// Returns nullopt if no decomposition exists.
std::optional<OneDanglingDecomposition> FindOneDanglingDecomposition(
    const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_ONE_DANGLING_H_
