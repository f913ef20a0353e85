// rpqres — classify/classifier: the Figure 1 pipeline.
//
// Given a regular language, classifies the complexity of its resilience
// problem using the paper's results, always on the infix-free sublanguage:
//   PTIME:   local (Thm 3.13), bipartite chain (Prp 7.6),
//            one-dangling (Prp 7.9)
//   NP-hard: four-legged (Thm 5.3), decided exactly on the minimal DFA;
//            this covers every non-star-free IF(L) (Lem 5.6),
//            neutral letter + non-local (Prp 5.7),
//            finite with a repeated-letter word (Thm 6.1),
//            specific proven-hard languages up to letter renaming
//            (Prp 7.4: ab|bc|ca; Prp 7.11: abcd|be|ef, abcd|bef)
//   UNCLASSIFIED otherwise (the open middle column of Fig 1).

#ifndef RPQRES_CLASSIFY_CLASSIFIER_H_
#define RPQRES_CLASSIFY_CLASSIFIER_H_

#include <string>

#include "lang/language.h"
#include "lang/tractable.h"
#include "util/status.h"

namespace rpqres {

/// The three columns of Figure 1.
enum class ComplexityClass {
  kPtime,
  kNpHard,
  kUnclassified,
  kTrivial,  ///< IF(L) empty or {ε}: resilience constant (0 / +∞)
};

const char* ComplexityClassName(ComplexityClass c);

/// A classification verdict with the paper result that justifies it.
struct Classification {
  ComplexityClass complexity = ComplexityClass::kUnclassified;
  std::string rule;         ///< e.g. "local (Thm 3.13)"
  std::string detail;       ///< witness words, legs, decomposition, ...
  std::string if_language;  ///< display form of IF(L) when finite
  bool finite = false;      ///< IF(L) finite?
};

/// Classifies the resilience complexity of Q_L per the paper's results.
/// Fails with OutOfRange when the four-legged test is reached on an IF(L)
/// whose minimal DFA exceeds kMaxFourLeggedStates (lang/four_legged.h).
Result<Classification> ClassifyResilience(const Language& lang);

/// Ignored-argument overload kept for perfbench/; the next benchmark change
/// deletes it.
inline Result<Classification> ClassifyResilience(const Language& lang, int) {
  return ClassifyResilience(lang);
}

/// Like ClassifyResilience, but takes the precomputed infix-free
/// sublanguage IF(L) and its PTIME verdict FindTractableForm(IF(L))
/// instead of rederiving them — the entry point for compiled query plans
/// (src/engine/), which hand the same form to the planner. `lang` is
/// still needed: the neutral-letter test (Prp 5.7) is a property of L
/// itself.
Result<Classification> ClassifyResilienceWithIF(const Language& lang,
                                                const Language& ifl,
                                                const TractableForm& form);

/// One-line report: "<regex>: <class> — <rule> (<detail>)".
std::string ClassificationReport(const Language& lang,
                                 const Classification& classification);

}  // namespace rpqres

#endif  // RPQRES_CLASSIFY_CLASSIFIER_H_
