// rpqres — gadgets/chain_cycle: hardness gadgets for non-bipartite chain
// languages, generalizing Fig 13.
//
// The paper proves NP-hardness for the non-bipartite chain language
// ab|bc|ca (Prp 7.4) and *conjectures* it for all non-bipartite chain
// languages. This module mechanically extends the proven territory: for a
// chain language whose words form an odd directed cycle on endpoint
// letters, it threads the cycle words twice into a Fig 13-shaped spine
// plus side arm. When the resulting pre-gadget verifies (Def 4.9), NP-
// hardness follows from the *proven* Prp 4.11 — so every success is a
// certified theorem, not a heuristic.

#ifndef RPQRES_GADGETS_CHAIN_CYCLE_H_
#define RPQRES_GADGETS_CHAIN_CYCLE_H_

#include <string>
#include <vector>

#include "gadgets/gadget.h"
#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// Builds the Fig 13-generalized pre-gadget for an odd sequence of chain
/// words w_1 … w_m (m odd) forming a directed cycle on endpoint letters:
/// w_i starts with x_i and ends with x_{i+1 mod m}. The completion letter
/// is x_1; the spine spells w_1[1:] w_2[1:] … around the cycle twice
/// (2m−1 segments), and the side arm re-spells w_1[1:] into the end of
/// segment m+1. Requires every |w_i| >= 2.
PreGadget OddChainCycleGadget(const std::vector<std::string>& cycle_words);

/// Finds an odd directed cycle of words in the endpoint structure of a
/// non-bipartite chain language, builds the gadget, and verifies it.
/// Callers pass IF(L), as they do to FindTractableForm. NotFound if no
/// consistently-oriented odd cycle exists or the candidate fails
/// verification; FailedPrecondition if `ifl` is not a chain language or
/// is bipartite.
Result<PreGadget> BuildNonBipartiteChainGadget(const Language& ifl);

}  // namespace rpqres

#endif  // RPQRES_GADGETS_CHAIN_CYCLE_H_
