#include "lang/four_legged.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "automata/ops.h"
#include "util/check.h"

namespace rpqres {

namespace {

// The BFS tree of shortest non-empty words read from `root` in the complete
// DFA `a`.
struct WordTree {
  static constexpr int kUnseen = -2;
  static constexpr int kRoot = -1;  // parent of states one letter from root

  WordTree(const Dfa& a, int root)
      : alphabet(a.alphabet()),
        parent(a.num_states(), kUnseen),
        letter(a.num_states(), 0) {
    auto visit = [&](int from, int via) {
      for (int s = 0; s < static_cast<int>(alphabet.size()); ++s) {
        int to = a.NextByIndex(from, s);
        if (parent[to] != kUnseen) continue;
        parent[to] = via;
        letter[to] = s;
        order.push_back(to);
      }
    };
    visit(root, kRoot);
    for (size_t i = 0; i < order.size(); ++i) visit(order[i], order[i]);
  }

  // The shortest non-empty word from the root to a state satisfying
  // `goal`; one must exist.
  template <typename Goal>
  std::string ShortestWordTo(Goal goal) const {
    for (int state : order) {
      if (!goal(state)) continue;
      std::string word;
      for (;; state = parent[state]) {
        word.insert(word.begin(), alphabet[letter[state]]);
        if (parent[state] == kRoot) return word;
      }
    }
    RPQRES_CHECK_MSG(false, "no state reached from the root meets the goal");
    return "";
  }

  const std::vector<char>& alphabet;
  std::vector<int> order;  // states reached by a non-empty word, by depth
  std::vector<int> parent;
  std::vector<int> letter;
};

}  // namespace

bool SomeInfixInLanguage(const Language& lang, const std::string& word) {
  for (size_t start = 0; start <= word.size(); ++start) {
    for (size_t len = 0; start + len <= word.size(); ++len) {
      if (lang.Contains(word.substr(start, len))) return true;
    }
  }
  return false;
}

Result<std::optional<FourLeggedWitness>> FindFourLeggedWitness(
    const Language& lang) {
  // Def 5.1 on the minimal DFA A = (Q, Σ, δ, q₀, F). With p = δ(q₀, αx) and
  // q = δ(q₀, γx), L is four-legged iff for some letter x there are p, q in
  // S_x = {δ(s, x) : s reached from q₀ by a non-empty word} such that p
  // accepts some non-empty β and some non-empty δ-leg w has δ(q, w) ∈ F,
  // δ(p, w) ∉ F. A multi-source BFS over pairs (p, q) from those seeds
  // decides it in O(|Q|²·|Σ|) and yields the shortest δ-leg.
  const Dfa& a = lang.min_dfa();
  const int n = a.num_states();
  if (n > kMaxFourLeggedStates) {
    return Status::OutOfRange(
        "four-legged test: minimal DFA of " + std::to_string(n) +
        " states exceeds the cap of " + std::to_string(kMaxFourLeggedStates));
  }
  const int k = static_cast<int>(a.alphabet().size());
  const WordTree from_initial(a, a.initial());

  // in_s[x][u]: u ∈ S_x.
  std::vector<std::vector<bool>> in_s(k, std::vector<bool>(n, false));
  for (int u : from_initial.order) {
    for (int s = 0; s < k; ++s) in_s[s][a.NextByIndex(u, s)] = true;
  }
  // accepts[u]: some non-empty word is accepted from u, i.e. one of u's
  // successors is useful (every state of A is reachable).
  const std::vector<bool> useful = UsefulStates(a);
  std::vector<bool> accepts(n, false);
  for (int u = 0; u < n; ++u) {
    for (int s = 0; s < k && !accepts[u]; ++s) {
      accepts[u] = useful[a.NextByIndex(u, s)];
    }
  }

  // Pair (p, q) is index p·n + q, which the state cap keeps within Pair.
  // parent[v] is the pair v was first reached from; from_seed[v] marks
  // pairs reached in one letter from a seed, whose parent is then the seed
  // itself (seeds are not marked visited: a seed may also satisfy the
  // goal, but only after a non-empty word).
  using Pair = int32_t;
  static_assert(int64_t{kMaxFourLeggedStates} * kMaxFourLeggedStates <=
                    std::numeric_limits<Pair>::max(),
                "pair indices must fit in Pair");
  const Pair pairs = static_cast<Pair>(n) * n;
  constexpr Pair kUnvisited = -1;
  std::vector<Pair> parent(pairs, kUnvisited);
  std::vector<bool> from_seed(pairs, false);
  std::vector<Pair> queue;
  auto expand = [&](Pair u, bool seed) {
    for (int s = 0; s < k; ++s) {
      Pair v = static_cast<Pair>(a.NextByIndex(u / n, s)) * n +
               a.NextByIndex(u % n, s);
      if (parent[v] != kUnvisited) continue;
      parent[v] = u;
      from_seed[v] = seed;
      queue.push_back(v);
    }
  };
  for (int x = 0; x < k; ++x) {
    for (int p = 0; p < n; ++p) {
      if (!in_s[x][p] || !accepts[p]) continue;
      for (int q = 0; q < n; ++q) {
        if (!in_s[x][q] || q == p) continue;
        expand(static_cast<Pair>(p) * n + q, /*seed=*/true);
      }
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    Pair v = queue[head];
    if (a.IsFinal(v / n) || !a.IsFinal(v % n)) {
      expand(v, /*seed=*/false);
      continue;
    }
    // Found: walk back to the seed, spelling the δ-leg.
    std::string delta;
    for (bool at_seed = false; !at_seed;) {
      Pair u = parent[v];
      for (int s = 0; s < k; ++s) {
        if (a.NextByIndex(u / n, s) == v / n &&
            a.NextByIndex(u % n, s) == v % n) {
          delta.insert(delta.begin(), a.alphabet()[s]);
          break;
        }
      }
      at_seed = from_seed[v];
      v = u;
    }
    const int p = v / n, q = v % n;
    int x = 0;
    while (!(in_s[x][p] && in_s[x][q])) ++x;
    // The shortest non-empty leg ending where the body letter leads to
    // `target` (α for p, γ for q).
    auto leg_into = [&](int target) {
      return from_initial.ShortestWordTo(
          [&](int s) { return a.NextByIndex(s, x) == target; });
    };
    FourLeggedWitness witness;
    witness.body = a.alphabet()[x];
    witness.alpha = leg_into(p);
    witness.gamma = leg_into(q);
    witness.beta = WordTree(a, p).ShortestWordTo(
        [&](int s) { return a.IsFinal(s); });
    witness.delta = std::move(delta);
    return std::optional<FourLeggedWitness>(MakeStableLegs(lang, witness));
  }
  return std::optional<FourLeggedWitness>();
}

FourLeggedWitness MakeStableLegs(const Language& lang,
                                 const FourLeggedWitness& witness) {
  // Proof of Lemma 5.5, verbatim. Invariant: `current` is a valid witness
  // with body x; each iteration either certifies stability or strictly
  // shrinks |αxδ|, so the loop terminates.
  FourLeggedWitness current = witness;
  const char x = witness.body;
  for (;;) {
    std::string eta_prime = current.CrossWord();  // α'xδ'
    RPQRES_CHECK(!lang.Contains(eta_prime));
    // Find a strict infix η of η' that is in L, if any.
    bool found = false;
    size_t found_start = 0, found_len = 0;
    for (size_t start = 0; start <= eta_prime.size() && !found; ++start) {
      for (size_t len = 0; start + len <= eta_prime.size(); ++len) {
        if (len == eta_prime.size() && start == 0) continue;  // not strict
        if (lang.Contains(eta_prime.substr(start, len))) {
          found = true;
          found_start = start;
          found_len = len;
          break;
        }
      }
    }
    if (!found) {
      current.stable = true;
      return current;
    }
    // η must straddle the body position |α'| (else it would be a strict
    // infix of a word of the infix-free language L). Write α' = α2 α1,
    // δ' = δ1 δ2 with η = α1 x δ1.
    size_t body_pos = current.alpha.size();
    RPQRES_CHECK_MSG(found_start <= body_pos &&
                         found_start + found_len > body_pos,
                     "infix does not straddle the body; L not infix-free?");
    std::string alpha1 = current.alpha.substr(found_start);
    std::string delta1 =
        eta_prime.substr(body_pos + 1,
                         found_start + found_len - body_pos - 1);
    bool alpha2_nonempty = found_start > 0;
    bool delta2_nonempty =
        found_start + found_len < eta_prime.size();
    RPQRES_CHECK(alpha2_nonempty || delta2_nonempty);
    RPQRES_CHECK(!alpha1.empty() && !delta1.empty());

    FourLeggedWitness next;
    next.body = x;
    if (delta2_nonempty) {
      // Case δ2 ≠ ε: α := γ', β := δ', γ := α1, δ := δ1.
      next.alpha = current.gamma;
      next.beta = current.delta;
      next.gamma = alpha1;
      next.delta = delta1;
    } else {
      // Case α2 ≠ ε: α := α1, β := δ1, γ := α', δ := β'.
      next.alpha = alpha1;
      next.beta = delta1;
      next.gamma = current.alpha;
      next.delta = current.beta;
    }
    RPQRES_CHECK(lang.Contains(next.FirstWord()));
    RPQRES_CHECK(lang.Contains(next.SecondWord()));
    RPQRES_CHECK(!lang.Contains(next.CrossWord()));
    current = next;
  }
}

}  // namespace rpqres
