#include "lang/one_dangling.h"

#include <algorithm>

#include "automata/ops.h"
#include "lang/local.h"

namespace rpqres {

std::optional<OneDanglingDecomposition> FindOneDanglingDecomposition(
    const Language& lang) {
  // Candidate dangling words: the two-letter words of L.
  Result<std::vector<std::string>> short_words = lang.WordsUpTo(2);
  if (!short_words.ok()) return std::nullopt;
  for (const std::string& w : *short_words) {
    if (w.size() != 2 || w[0] == w[1]) continue;
    char x = w[0], y = w[1];
    // base = L \ {xy}.
    Dfa base_dfa = Minimize(
        DifferenceDfa(lang.min_dfa(), MinimalDfa(EnfaFromWord(w))));
    Language base = Language::FromDfa(base_dfa);
    base.set_description(lang.description() + " \\ {" + w + "}");
    const std::vector<char>& sigma = base.used_letters();
    bool x_in_base =
        std::binary_search(sigma.begin(), sigma.end(), x);
    bool y_in_base =
        std::binary_search(sigma.begin(), sigma.end(), y);
    if (x_in_base && y_in_base) continue;  // neither endpoint is fresh
    if (!IsLocal(base)) continue;
    OneDanglingDecomposition decomposition{x, y, std::move(base), x_in_base,
                                           y_in_base};
    return decomposition;
  }
  return std::nullopt;
}

std::optional<OrientedOneDangling> FindOrientedOneDangling(
    const Language& lang) {
  if (std::optional<OneDanglingDecomposition> direct =
          FindOneDanglingDecomposition(lang)) {
    return OrientedOneDangling{*std::move(direct), /*mirrored=*/false};
  }
  if (std::optional<OneDanglingDecomposition> mirrored =
          FindOneDanglingDecomposition(lang.Mirror())) {
    return OrientedOneDangling{*std::move(mirrored), /*mirrored=*/true};
  }
  return std::nullopt;
}

bool IsOneDanglingOrMirror(const Language& lang) {
  return FindOrientedOneDangling(lang).has_value();
}

}  // namespace rpqres
