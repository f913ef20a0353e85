// rpqres — lang/tractable: the PTIME column of Figure 1, tested once.
//
// The classifier reports which polynomial-time result covers IF(L), and
// the planner needs the same answer plus its witness structure (the BCL
// words and coloring, the one-dangling decomposition) to prepare a
// solver. FindTractableForm runs the three tests once, in Figure 1's
// order, so a compile derives each verdict a single time and hands it to
// both.

#ifndef RPQRES_LANG_TRACTABLE_H_
#define RPQRES_LANG_TRACTABLE_H_

#include <optional>

#include "lang/chain.h"
#include "lang/language.h"
#include "lang/one_dangling.h"

namespace rpqres {

/// The first PTIME result of Figure 1 that applies to a language.
enum class TractableKind {
  kNone,            ///< none of the three tests holds
  kLocal,           ///< Thm 3.13
  kBipartiteChain,  ///< Prp 7.6
  kOneDangling,     ///< Prp 7.9, directly or mirrored (Prp 6.3)
};

struct TractableForm {
  TractableKind kind = TractableKind::kNone;
  /// Set iff kind == kBipartiteChain.
  std::optional<BipartiteChain> chain;
  /// Set iff kind == kOneDangling.
  std::optional<OrientedOneDangling> one_dangling;
};

/// Tests locality, then the bipartite chain property, then one-dangling
/// (L, then mirror(L)), stopping at the first that holds. Callers pass
/// IF(L): every result of Figure 1 is stated on the infix-free
/// sublanguage. The trivial languages (ε ∈ L, L = ∅) get kNone; callers
/// answer those before consulting the form.
TractableForm FindTractableForm(const Language& ifl);

}  // namespace rpqres

#endif  // RPQRES_LANG_TRACTABLE_H_
