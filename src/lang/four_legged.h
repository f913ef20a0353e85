// rpqres — lang/four_legged: four-legged languages (Section 5.1).
//
// An infix-free language L is four-legged if there are a body letter x and
// non-empty legs α, β, γ, δ with αxβ ∈ L, γxδ ∈ L, αxδ ∉ L (Def 5.1).
// Theorem 5.3 shows RES_set(L) is NP-hard for such L; Lemma 5.5 shows legs
// can be chosen *stable* (no infix of αxδ in L), which is what the gadget
// constructions of Figures 5–6 consume. Four-leggedness is decided on the
// minimal DFA, not by listing words, so every non-star-free infix-free
// language is caught too (Lemma 5.6).

#ifndef RPQRES_LANG_FOUR_LEGGED_H_
#define RPQRES_LANG_FOUR_LEGGED_H_

#include <optional>
#include <string>

#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// The largest minimal DFA, in states, that FindFourLeggedWitness decides.
/// Its pair search holds a parent index and a queue slot per state pair,
/// up to 8·n² bytes: about 32 MiB at this cap.
inline constexpr int kMaxFourLeggedStates = 2048;

/// A witness that L is four-legged: αxβ ∈ L, γxδ ∈ L, αxδ ∉ L, all legs
/// non-empty. If `stable`, additionally no infix of αxδ is in L (Def 5.4).
struct FourLeggedWitness {
  char body = '\0';
  std::string alpha;
  std::string beta;
  std::string gamma;
  std::string delta;
  bool stable = false;

  /// αxβ.
  std::string FirstWord() const { return alpha + body + beta; }
  /// γxδ.
  std::string SecondWord() const { return gamma + body + delta; }
  /// αxδ (the missing cross-product word).
  std::string CrossWord() const { return alpha + body + delta; }
};

/// Decides whether the *infix-free* language `lang` is four-legged, exactly,
/// in O(n²·|Σ|) time and O(n²) space on its n-state minimal DFA. Returns a
/// stable witness (already passed through MakeStableLegs), or nullopt iff
/// `lang` is not four-legged. Fails with OutOfRange when n exceeds
/// kMaxFourLeggedStates.
Result<std::optional<FourLeggedWitness>> FindFourLeggedWitness(
    const Language& lang);

/// Upgrades any witness to one with stable legs (Lemma 5.5). The input
/// language must be infix-free.
FourLeggedWitness MakeStableLegs(const Language& lang,
                                 const FourLeggedWitness& witness);

/// True iff some infix of `word` (including `word` itself) is in L.
bool SomeInfixInLanguage(const Language& lang, const std::string& word);

}  // namespace rpqres

#endif  // RPQRES_LANG_FOUR_LEGGED_H_
