// rpqres — lang/local: local languages (Section 3.1).
//
// A language is local iff it is recognized by a local DFA (all a-transitions
// share their target, Def 3.1), iff it is letter-Cartesian (Def 3.3,
// Prp 3.5). Locality is read off the minimal DFA: in a local DFA every
// useful a-transition enters q_a, so every useful a-transition of the
// minimal DFA enters the one state whose residual is L(q_a); conversely a
// trimmed DFA with one a-target per letter is a local DFA. The local
// overapproximation (Def 3.8) is kept for the RO-εNFA construction.

#ifndef RPQRES_LANG_LOCAL_H_
#define RPQRES_LANG_LOCAL_H_

#include <string>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "lang/language.h"

namespace rpqres {

/// The (Σ_start, Σ_end, Π) profile of Definition 3.8.
struct LocalProfile {
  std::vector<char> start_letters;  ///< letters that can start a word of L
  std::vector<char> end_letters;    ///< letters that can end a word of L
  std::vector<std::pair<char, char>> pairs;  ///< consecutive letter pairs Π
  bool contains_epsilon = false;
  std::vector<char> letters;  ///< letters occurring in L (sorted)
};

/// Extracts the local profile of L from its minimal DFA.
LocalProfile ComputeLocalProfile(const Language& lang);

/// Builds the local overapproximation DFA of Definition 3.8: one state q_0
/// plus one state q_a per letter. The result is a (partial) local DFA with
/// L(A) ⊇ L (Claim 3.9).
Dfa LocalOverapproximationDfa(const LocalProfile& profile);

/// Locality test: L is local iff its minimal DFA, restricted to useful
/// states, is a local DFA (IsLocalDfa). Equivalently (Prp 3.12 /
/// Claim 3.11), iff the local overapproximation recognizes exactly L.
bool IsLocal(const Language& lang);

/// Checks whether a specific DFA is a *local DFA* (Def 3.1) on its useful
/// part: for each letter, all transitions on that letter between useful
/// states share the same target.
bool IsLocalDfa(const Dfa& dfa);

/// Direct letter-Cartesian check (Def 3.3) for an explicit finite language;
/// used in tests to validate Prp 3.5 (local ⇔ letter-Cartesian).
bool IsLetterCartesian(const std::vector<std::string>& words);

}  // namespace rpqres

#endif  // RPQRES_LANG_LOCAL_H_
