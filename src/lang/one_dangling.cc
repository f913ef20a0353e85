#include "lang/one_dangling.h"

#include <string>
#include <vector>

#include "automata/ops.h"
#include "lang/local.h"

namespace rpqres {

std::optional<OneDanglingDecomposition> FindOneDanglingDecomposition(
    const Language& lang) {
  // Every state of the complete minimal DFA is reachable, so a transition
  // lies on an accepting run iff its target is useful; the one state that
  // is not useful, if any, is the dead sink.
  const Dfa& a = lang.min_dfa();
  const int q0 = a.initial();
  std::vector<bool> useful = UsefulStates(a);
  std::vector<int> in_degree(a.num_states(), 0), useful_out(a.num_states(), 0);
  std::vector<int> useful_per_letter(a.alphabet().size(), 0);
  for (int s = 0; s < a.num_states(); ++s) {
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      const int to = a.NextByIndex(s, static_cast<int>(i));
      ++in_degree[to];
      useful_out[s] += useful[to];
      useful_per_letter[i] += useful[to];
    }
  }
  // A transition into q0 closes a loop u ≠ ε on q0, and u·xy ∈ L would
  // carry both x and y into the base, whatever the candidate.
  if (in_degree[q0] > 0) return std::nullopt;

  // Candidate dangling words: the two-letter words of L.
  Result<std::vector<std::string>> short_words = lang.WordsUpTo(2);
  if (!short_words.ok()) return std::nullopt;
  for (const std::string& w : *short_words) {
    if (w.size() != 2 || w[0] == w[1]) continue;
    const char x = w[0], y = w[1];
    const int p = a.Next(q0, x), r = a.Next(p, y);
    if (useful_out[r] > 0) continue;  // xy extends to longer words of L
    // x (resp. y) is fresh in L \ {xy} iff xy is the only accepting run
    // that reads it: (q0, x) is the one useful x-transition and p leads on
    // to r only (resp. (p, y) is the one useful y-transition and (q0, x)
    // the only way into p).
    const bool x_fresh = useful_per_letter[a.SymbolIndex(x)] == 1 &&
                         !a.IsFinal(p) && useful_out[p] == 1;
    const bool y_fresh =
        useful_per_letter[a.SymbolIndex(y)] == 1 && in_degree[p] == 1;
    if (!x_fresh && !y_fresh) continue;
    // L \ {xy}: send the transition that only xy uses to the dead sink,
    // where r leads on every letter.
    Dfa cut = a;
    cut.SetTransition(x_fresh ? q0 : p, x_fresh ? x : y, a.Next(r, x));
    Language base = Language::FromDfa(cut);
    base.set_description(lang.description() + " \\ {" + w + "}");
    if (!IsLocal(base)) continue;
    return OneDanglingDecomposition{x, y, std::move(base), !x_fresh,
                                    !y_fresh};
  }
  return std::nullopt;
}

}  // namespace rpqres
