// rpqres — lang/ro_enfa: Read-Once εNFAs (Def 3.15, Lemma 3.17).
//
// An RO-εNFA has at most one transition per letter; RO-εNFAs recognize
// exactly the local languages, and their read-once property is what makes
// the product network of Theorem 3.13 have one finite-capacity edge per
// database fact.

#ifndef RPQRES_LANG_RO_ENFA_H_
#define RPQRES_LANG_RO_ENFA_H_

#include "automata/enfa.h"
#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// True iff `a` has at most one transition per (non-ε) letter (Def 3.15).
bool IsRoEnfa(const Enfa& a);

/// Builds an RO-εNFA recognizing L (Lemma 3.17): ≤ 2|Σ|+1 states, built
/// from the local profile of Definition 3.8. Fails with FailedPrecondition
/// if L is not local (checked first with IsLocal on the minimal DFA, so
/// this also serves as the "promise" check of Theorem 3.13's
/// combined-complexity statement).
Result<Enfa> BuildRoEnfa(const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_RO_ENFA_H_
