// rpqres — automata/ops: the automata toolbox used by all language-level
// analyses: determinization, minimization, boolean algebra, rational
// operations, decision procedures, and word enumeration.
//
// Conventions:
//  * Determinize/Minimize/boolean ops work with *complete* DFAs: every
//    state has a transition for every symbol of the DFA's alphabet (a sink
//    state is materialized when needed).
//  * Operations that combine two automata first extend both to the union of
//    their alphabets.

#ifndef RPQRES_AUTOMATA_OPS_H_
#define RPQRES_AUTOMATA_OPS_H_

#include <optional>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/enfa.h"
#include "util/status.h"

namespace rpqres {

/// Union of two sorted, deduplicated alphabets.
std::vector<char> MergeAlphabets(const std::vector<char>& a,
                                 const std::vector<char>& b);

// --- εNFA constructions ----------------------------------------------------

/// εNFA accepting exactly {word}.
Enfa EnfaFromWord(const std::string& word);
/// εNFA accepting exactly the given set of words.
Enfa EnfaFromWords(const std::vector<std::string>& words);
/// εNFA for Σ* over the given alphabet.
Enfa EnfaSigmaStar(const std::vector<char>& alphabet);
/// εNFA for Σ+ over the given alphabet.
Enfa EnfaSigmaPlus(const std::vector<char>& alphabet);
/// Union of two εNFAs (disjoint juxtaposition).
Enfa EnfaUnion(const Enfa& a, const Enfa& b);
/// Concatenation L(a)·L(b).
Enfa EnfaConcat(const Enfa& a, const Enfa& b);
/// Kleene star L(a)*.
Enfa EnfaStar(const Enfa& a);
/// Mirror language L(a)^R (reverse all transitions, swap initial/final) —
/// the reduction of Prp 6.3.
Enfa EnfaMirror(const Enfa& a);
/// Restriction of an εNFA to useful states (accessible + co-accessible),
/// Definition C.3. States are renumbered.
Enfa EnfaTrim(const Enfa& a);
/// Embeds a DFA as an εNFA (missing transitions simply absent).
Enfa DfaToEnfa(const Dfa& a);

// --- Determinization and minimization --------------------------------------

/// Subset construction. The result is a *complete* DFA over
/// MergeAlphabets(a.Alphabet(), extra_alphabet).
Dfa Determinize(const Enfa& a, const std::vector<char>& extra_alphabet = {});

/// Extends `a` to a complete DFA over MergeAlphabets(a.alphabet(), alphabet)
/// by adding a sink state if necessary.
Dfa CompleteDfa(const Dfa& a, const std::vector<char>& alphabet = {});

/// Minimal complete DFA for L(a) (Moore partition refinement). The result's
/// states are numbered in BFS order from the initial state, making equal
/// languages over equal alphabets yield structurally identical DFAs.
Dfa Minimize(const Dfa& a);

/// Convenience: parse-free pipeline εNFA -> minimal complete DFA.
Dfa MinimalDfa(const Enfa& a, const std::vector<char>& extra_alphabet = {});

// --- Boolean algebra on complete DFAs --------------------------------------

enum class BoolOp { kAnd, kOr, kDiff };

/// Product automaton computing L(a) op L(b); inputs are completed over the
/// merged alphabet first.
Dfa ProductDfa(const Dfa& a, const Dfa& b, BoolOp op);
Dfa IntersectDfa(const Dfa& a, const Dfa& b);
Dfa UnionDfa(const Dfa& a, const Dfa& b);
Dfa DifferenceDfa(const Dfa& a, const Dfa& b);
/// Complement w.r.t. MergeAlphabets(a.alphabet(), alphabet)*.
Dfa ComplementDfa(const Dfa& a, const std::vector<char>& alphabet = {});

// --- Decision procedures ----------------------------------------------------

/// True iff L(a) = ∅.
bool DfaIsEmptyLanguage(const Dfa& a);
/// True iff L(a) = ∅.
bool EnfaIsEmptyLanguage(const Enfa& a);
/// True iff L(a) ⊆ L(b).
bool IsSubsetOf(const Dfa& a, const Dfa& b);
/// True iff L(a) = L(b).
bool AreEquivalent(const Dfa& a, const Dfa& b);
/// True iff L(a) is finite.
bool DfaIsFinite(const Dfa& a);

/// useful[s]: state s of `a` is reachable from the initial state and
/// co-reachable to some final state, i.e. lies on an accepting run. On a
/// minimal complete DFA every state is reachable, and the one state that
/// is not useful is the dead sink, if there is one.
std::vector<bool> UsefulStates(const Dfa& a);

/// Shortest accepted word (by length, ties broken lexicographically), or
/// nullopt if the language is empty.
std::optional<std::string> ShortestWord(const Dfa& a);
std::optional<std::string> ShortestWordEnfa(const Enfa& a);

// --- Enumeration ------------------------------------------------------------

/// All words of a finite language, sorted by (length, lexicographic).
/// Fails with FailedPrecondition if L(a) is infinite, or OutOfRange if the
/// language has more than `max_words` words.
Result<std::vector<std::string>> EnumerateFiniteLanguage(
    const Dfa& a, size_t max_words = 1 << 20);

/// All accepted words of length <= max_length, sorted by (length, lex).
/// Fails with OutOfRange if more than `max_words` would be returned.
Result<std::vector<std::string>> WordsUpToLength(const Dfa& a, int max_length,
                                                 size_t max_words = 1 << 20);

/// Number of accepted words of each length 0..max_length (for tests).
std::vector<uint64_t> CountWordsByLength(const Dfa& a, int max_length);

}  // namespace rpqres

#endif  // RPQRES_AUTOMATA_OPS_H_
