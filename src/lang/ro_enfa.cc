#include "lang/ro_enfa.h"

#include <algorithm>

#include "lang/local.h"
#include "util/check.h"

namespace rpqres {

bool IsRoEnfa(const Enfa& a) {
  std::vector<char> seen;
  for (const EnfaTransition& t : a.transitions()) {
    if (t.symbol == kEpsilonSymbol) continue;
    if (std::find(seen.begin(), seen.end(), t.symbol) != seen.end()) {
      return false;
    }
    seen.push_back(t.symbol);
  }
  return true;
}

Result<Enfa> BuildRoEnfa(const Language& lang) {
  if (!IsLocal(lang)) {
    return Status::FailedPrecondition(
        "BuildRoEnfa: language " + lang.description() +
        " is not local (RO-εNFAs recognize exactly the local languages, "
        "Lemma 3.17)");
  }
  // The construction recognizes the local overapproximation of L
  // (Claim 3.9/3.10), which equals L because L is local.
  LocalProfile profile = ComputeLocalProfile(lang);
  const std::vector<char>& letters = profile.letters;

  // State layout: 0 = q0; 1 + 2i = in_a (tail of the unique a-transition);
  // 2 + 2i = out_a (its head), for a = letters[i].
  Enfa ro;
  ro.AddStates(1 + 2 * static_cast<int>(letters.size()));
  ro.AddInitial(0);
  if (profile.contains_epsilon) ro.AddFinal(0);
  auto index_of = [&letters](char c) {
    auto it = std::lower_bound(letters.begin(), letters.end(), c);
    RPQRES_DCHECK(it != letters.end() && *it == c);
    return static_cast<int>(it - letters.begin());
  };
  auto in_state = [&index_of](char c) { return 1 + 2 * index_of(c); };
  auto out_state = [&index_of](char c) { return 2 + 2 * index_of(c); };

  for (char c : letters) {
    ro.AddTransition(in_state(c), c, out_state(c));  // the unique c-edge
  }
  for (char c : profile.start_letters) {
    ro.AddTransition(0, kEpsilonSymbol, in_state(c));
  }
  for (auto [c1, c2] : profile.pairs) {
    ro.AddTransition(out_state(c1), kEpsilonSymbol, in_state(c2));
  }
  for (char c : profile.end_letters) ro.AddFinal(out_state(c));

  RPQRES_DCHECK(IsRoEnfa(ro));
  return ro;
}

}  // namespace rpqres
