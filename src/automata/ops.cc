#include "automata/ops.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>

#include "util/check.h"

namespace rpqres {

std::vector<char> MergeAlphabets(const std::vector<char>& a,
                                 const std::vector<char>& b) {
  std::vector<char> merged;
  merged.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

// --- εNFA constructions ----------------------------------------------------

Enfa EnfaFromWord(const std::string& word) {
  Enfa a;
  int first = a.AddStates(static_cast<int>(word.size()) + 1);
  a.AddInitial(first);
  a.AddFinal(first + static_cast<int>(word.size()));
  for (size_t i = 0; i < word.size(); ++i) {
    a.AddTransition(first + static_cast<int>(i), word[i],
                    first + static_cast<int>(i) + 1);
  }
  return a;
}

Enfa EnfaFromWords(const std::vector<std::string>& words) {
  Enfa a;
  if (words.empty()) {
    a.AddState();  // single useless state: empty language
    return a;
  }
  int start = a.AddState();
  a.AddInitial(start);
  for (const std::string& word : words) {
    int prev = start;
    for (char c : word) {
      int next = a.AddState();
      a.AddTransition(prev, c, next);
      prev = next;
    }
    a.AddFinal(prev);
  }
  return a;
}

Enfa EnfaSigmaStar(const std::vector<char>& alphabet) {
  Enfa a;
  int s = a.AddState();
  a.AddInitial(s);
  a.AddFinal(s);
  for (char c : alphabet) a.AddTransition(s, c, s);
  return a;
}

Enfa EnfaSigmaPlus(const std::vector<char>& alphabet) {
  Enfa a;
  int s0 = a.AddState();
  int s1 = a.AddState();
  a.AddInitial(s0);
  a.AddFinal(s1);
  for (char c : alphabet) {
    a.AddTransition(s0, c, s1);
    a.AddTransition(s1, c, s1);
  }
  return a;
}

namespace {

// Copies `src` into `dst` with all state ids shifted by `offset`; does not
// copy initial/final markings.
void AppendStatesAndTransitions(const Enfa& src, Enfa* dst, int offset) {
  for (const EnfaTransition& t : src.transitions()) {
    dst->AddTransition(t.from + offset, t.symbol, t.to + offset);
  }
}

}  // namespace

Enfa EnfaUnion(const Enfa& a, const Enfa& b) {
  Enfa out;
  out.AddStates(a.num_states() + b.num_states());
  AppendStatesAndTransitions(a, &out, 0);
  AppendStatesAndTransitions(b, &out, a.num_states());
  for (int s : a.initial_states()) out.AddInitial(s);
  for (int s : a.final_states()) out.AddFinal(s);
  for (int s : b.initial_states()) out.AddInitial(s + a.num_states());
  for (int s : b.final_states()) out.AddFinal(s + a.num_states());
  return out;
}

Enfa EnfaConcat(const Enfa& a, const Enfa& b) {
  Enfa out;
  out.AddStates(a.num_states() + b.num_states());
  AppendStatesAndTransitions(a, &out, 0);
  AppendStatesAndTransitions(b, &out, a.num_states());
  for (int s : a.initial_states()) out.AddInitial(s);
  for (int s : b.final_states()) out.AddFinal(s + a.num_states());
  for (int f : a.final_states()) {
    for (int i : b.initial_states()) {
      out.AddTransition(f, kEpsilonSymbol, i + a.num_states());
    }
  }
  return out;
}

Enfa EnfaStar(const Enfa& a) {
  Enfa out;
  out.AddStates(a.num_states());
  AppendStatesAndTransitions(a, &out, 0);
  int hub = out.AddState();
  out.AddInitial(hub);
  out.AddFinal(hub);
  for (int i : a.initial_states()) out.AddTransition(hub, kEpsilonSymbol, i);
  for (int f : a.final_states()) out.AddTransition(f, kEpsilonSymbol, hub);
  return out;
}

Enfa EnfaMirror(const Enfa& a) {
  Enfa out;
  out.AddStates(a.num_states());
  for (const EnfaTransition& t : a.transitions()) {
    out.AddTransition(t.to, t.symbol, t.from);
  }
  for (int s : a.final_states()) out.AddInitial(s);
  for (int s : a.initial_states()) out.AddFinal(s);
  return out;
}

Enfa EnfaTrim(const Enfa& a) {
  int n = a.num_states();
  std::vector<std::vector<int>> out_edges(n), in_edges(n);
  for (const EnfaTransition& t : a.transitions()) {
    out_edges[t.from].push_back(t.to);
    in_edges[t.to].push_back(t.from);
  }
  auto bfs = [n](const std::vector<int>& sources,
                 const std::vector<std::vector<int>>& edges) {
    std::vector<bool> seen(n, false);
    std::queue<int> queue;
    for (int s : sources) {
      if (!seen[s]) {
        seen[s] = true;
        queue.push(s);
      }
    }
    while (!queue.empty()) {
      int s = queue.front();
      queue.pop();
      for (int to : edges[s]) {
        if (!seen[to]) {
          seen[to] = true;
          queue.push(to);
        }
      }
    }
    return seen;
  };
  std::vector<bool> accessible = bfs(a.initial_states(), out_edges);
  std::vector<bool> coaccessible = bfs(a.final_states(), in_edges);

  std::vector<int> remap(n, -1);
  Enfa out;
  for (int s = 0; s < n; ++s) {
    if (accessible[s] && coaccessible[s]) remap[s] = out.AddState();
  }
  for (const EnfaTransition& t : a.transitions()) {
    if (remap[t.from] >= 0 && remap[t.to] >= 0) {
      out.AddTransition(remap[t.from], t.symbol, remap[t.to]);
    }
  }
  for (int s : a.initial_states()) {
    if (remap[s] >= 0) out.AddInitial(remap[s]);
  }
  for (int s : a.final_states()) {
    if (remap[s] >= 0) out.AddFinal(remap[s]);
  }
  return out;
}

Enfa DfaToEnfa(const Dfa& a) {
  Enfa out;
  out.AddStates(a.num_states());
  for (int s = 0; s < a.num_states(); ++s) {
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState) out.AddTransition(s, a.alphabet()[i], to);
    }
    if (a.IsFinal(s)) out.AddFinal(s);
  }
  if (a.num_states() == 0) {
    out.AddState();
    return out;
  }
  out.AddInitial(a.initial());
  return out;
}

// --- Determinization and minimization --------------------------------------

Dfa Determinize(const Enfa& a, const std::vector<char>& extra_alphabet) {
  std::vector<char> alphabet = MergeAlphabets(a.Alphabet(), extra_alphabet);

  // Per-symbol adjacency for fast subset moves.
  std::vector<std::vector<std::pair<int, int>>> by_symbol(alphabet.size());
  for (const EnfaTransition& t : a.transitions()) {
    if (t.symbol == kEpsilonSymbol) continue;
    auto it = std::lower_bound(alphabet.begin(), alphabet.end(), t.symbol);
    by_symbol[it - alphabet.begin()].push_back({t.from, t.to});
  }

  std::map<std::vector<int>, int> subset_ids;
  std::vector<std::vector<int>> subsets;
  auto intern = [&](std::vector<int> subset) {
    auto [it, inserted] =
        subset_ids.insert({subset, static_cast<int>(subsets.size())});
    if (inserted) subsets.push_back(std::move(subset));
    return it->second;
  };

  int start = intern(a.EpsilonClosure(a.initial_states()));
  std::vector<std::vector<int>> table;  // [subset_id][symbol] -> subset_id
  for (size_t id = 0; id < subsets.size(); ++id) {
    table.emplace_back(alphabet.size(), kNoState);
    for (size_t sym = 0; sym < alphabet.size(); ++sym) {
      const std::vector<int>& current = subsets[id];
      std::vector<int> moved;
      for (const auto& [from, to] : by_symbol[sym]) {
        if (std::binary_search(current.begin(), current.end(), from)) {
          moved.push_back(to);
        }
      }
      std::sort(moved.begin(), moved.end());
      moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
      table[id][sym] = intern(a.EpsilonClosure(moved));
    }
  }

  Dfa dfa(alphabet, static_cast<int>(subsets.size()));
  dfa.set_initial(start);
  for (size_t id = 0; id < subsets.size(); ++id) {
    for (size_t sym = 0; sym < alphabet.size(); ++sym) {
      dfa.SetTransition(static_cast<int>(id), alphabet[sym], table[id][sym]);
    }
    for (int s : subsets[id]) {
      if (a.IsFinal(s)) {
        dfa.SetFinal(static_cast<int>(id));
        break;
      }
    }
  }
  RPQRES_DCHECK(dfa.IsComplete());
  return dfa;
}

Dfa CompleteDfa(const Dfa& a, const std::vector<char>& alphabet) {
  std::vector<char> merged = MergeAlphabets(a.alphabet(), alphabet);
  bool needs_sink = false;
  if (merged.size() != a.alphabet().size()) {
    needs_sink = a.num_states() > 0;
  }
  if (a.num_states() == 0) {
    // Degenerate empty automaton: one non-final sink.
    Dfa out(merged, 1);
    out.set_initial(0);
    for (char c : merged) out.SetTransition(0, c, 0);
    return out;
  }
  for (int s = 0; s < a.num_states() && !needs_sink; ++s) {
    for (char c : a.alphabet()) {
      if (a.Next(s, c) == kNoState) {
        needs_sink = true;
        break;
      }
    }
  }
  int n = a.num_states() + (needs_sink ? 1 : 0);
  Dfa out(merged, n);
  out.set_initial(a.initial());
  int sink = a.num_states();
  for (int s = 0; s < a.num_states(); ++s) {
    if (a.IsFinal(s)) out.SetFinal(s);
    for (char c : merged) {
      int to = a.Next(s, c);
      out.SetTransition(s, c, to == kNoState ? sink : to);
    }
  }
  if (needs_sink) {
    for (char c : merged) out.SetTransition(sink, c, sink);
  }
  RPQRES_DCHECK(out.IsComplete());
  return out;
}

namespace {

// Removes states unreachable from the initial state of a complete DFA.
Dfa DropUnreachable(const Dfa& a) {
  std::vector<int> remap(a.num_states(), -1);
  std::vector<int> order;
  std::queue<int> queue;
  remap[a.initial()] = 0;
  order.push_back(a.initial());
  queue.push(a.initial());
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop();
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState && remap[to] < 0) {
        remap[to] = static_cast<int>(order.size());
        order.push_back(to);
        queue.push(to);
      }
    }
  }
  Dfa out(a.alphabet(), static_cast<int>(order.size()));
  out.set_initial(0);
  for (size_t idx = 0; idx < order.size(); ++idx) {
    int s = order[idx];
    if (a.IsFinal(s)) out.SetFinal(static_cast<int>(idx));
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState) {
        out.SetTransition(static_cast<int>(idx), a.alphabet()[i], remap[to]);
      }
    }
  }
  return out;
}

}  // namespace

Dfa Minimize(const Dfa& input) {
  Dfa a = DropUnreachable(CompleteDfa(input));
  int n = a.num_states();
  size_t sigma = a.alphabet().size();

  // Moore partition refinement.
  std::vector<int> cls(n);
  for (int s = 0; s < n; ++s) cls[s] = a.IsFinal(s) ? 1 : 0;
  int num_classes = 2;
  // If all states agree on finality there is a single class.
  {
    bool any_final = false, any_nonfinal = false;
    for (int s = 0; s < n; ++s) {
      (a.IsFinal(s) ? any_final : any_nonfinal) = true;
    }
    if (!any_final || !any_nonfinal) {
      for (int s = 0; s < n; ++s) cls[s] = 0;
      num_classes = 1;
    }
  }

  for (;;) {
    // Signature of a state: (class, class of successor per symbol).
    std::map<std::vector<int>, int> signature_ids;
    std::vector<int> new_cls(n);
    for (int s = 0; s < n; ++s) {
      std::vector<int> sig;
      sig.reserve(sigma + 1);
      sig.push_back(cls[s]);
      for (size_t i = 0; i < sigma; ++i) {
        sig.push_back(cls[a.NextByIndex(s, static_cast<int>(i))]);
      }
      auto [it, inserted] =
          signature_ids.insert({sig, static_cast<int>(signature_ids.size())});
      (void)inserted;
      new_cls[s] = it->second;
    }
    int new_num_classes = static_cast<int>(signature_ids.size());
    cls = std::move(new_cls);
    if (new_num_classes == num_classes) break;
    num_classes = new_num_classes;
  }

  // Build the quotient, then renumber canonically in BFS order.
  Dfa quotient(a.alphabet(), num_classes);
  quotient.set_initial(cls[a.initial()]);
  for (int s = 0; s < n; ++s) {
    if (a.IsFinal(s)) quotient.SetFinal(cls[s]);
    for (size_t i = 0; i < sigma; ++i) {
      quotient.SetTransition(cls[s], a.alphabet()[i],
                             cls[a.NextByIndex(s, static_cast<int>(i))]);
    }
  }
  return DropUnreachable(quotient);
}

Dfa MinimalDfa(const Enfa& a, const std::vector<char>& extra_alphabet) {
  return Minimize(Determinize(a, extra_alphabet));
}

// --- Boolean algebra --------------------------------------------------------

Dfa ProductDfa(const Dfa& a_in, const Dfa& b_in, BoolOp op) {
  std::vector<char> alphabet =
      MergeAlphabets(a_in.alphabet(), b_in.alphabet());
  Dfa a = CompleteDfa(a_in, alphabet);
  Dfa b = CompleteDfa(b_in, alphabet);

  auto combine = [op](bool x, bool y) {
    switch (op) {
      case BoolOp::kAnd:
        return x && y;
      case BoolOp::kOr:
        return x || y;
      case BoolOp::kDiff:
        return x && !y;
    }
    return false;
  };

  std::map<std::pair<int, int>, int> ids;
  std::vector<std::pair<int, int>> pairs;
  auto intern = [&](std::pair<int, int> p) {
    auto [it, inserted] = ids.insert({p, static_cast<int>(pairs.size())});
    if (inserted) pairs.push_back(p);
    return it->second;
  };

  intern({a.initial(), b.initial()});
  std::vector<std::vector<int>> table;
  for (size_t id = 0; id < pairs.size(); ++id) {
    table.emplace_back(alphabet.size(), kNoState);
    for (size_t i = 0; i < alphabet.size(); ++i) {
      auto [sa, sb] = pairs[id];
      table[id][i] = intern({a.NextByIndex(sa, static_cast<int>(i)),
                             b.NextByIndex(sb, static_cast<int>(i))});
    }
  }

  Dfa out(alphabet, static_cast<int>(pairs.size()));
  out.set_initial(0);
  for (size_t id = 0; id < pairs.size(); ++id) {
    auto [sa, sb] = pairs[id];
    if (combine(a.IsFinal(sa), b.IsFinal(sb))) {
      out.SetFinal(static_cast<int>(id));
    }
    for (size_t i = 0; i < alphabet.size(); ++i) {
      out.SetTransition(static_cast<int>(id), alphabet[i], table[id][i]);
    }
  }
  return out;
}

Dfa IntersectDfa(const Dfa& a, const Dfa& b) {
  return ProductDfa(a, b, BoolOp::kAnd);
}
Dfa UnionDfa(const Dfa& a, const Dfa& b) {
  return ProductDfa(a, b, BoolOp::kOr);
}
Dfa DifferenceDfa(const Dfa& a, const Dfa& b) {
  return ProductDfa(a, b, BoolOp::kDiff);
}

Dfa ComplementDfa(const Dfa& a, const std::vector<char>& alphabet) {
  Dfa complete = CompleteDfa(a, alphabet);
  Dfa out = complete;
  for (int s = 0; s < out.num_states(); ++s) {
    out.SetFinal(s, !complete.IsFinal(s));
  }
  return out;
}

// --- Decision procedures ----------------------------------------------------

bool DfaIsEmptyLanguage(const Dfa& a) {
  if (a.num_states() == 0) return true;
  std::vector<bool> seen(a.num_states(), false);
  std::queue<int> queue;
  seen[a.initial()] = true;
  queue.push(a.initial());
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop();
    if (a.IsFinal(s)) return false;
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState && !seen[to]) {
        seen[to] = true;
        queue.push(to);
      }
    }
  }
  return true;
}

bool EnfaIsEmptyLanguage(const Enfa& a) {
  Enfa trimmed = EnfaTrim(a);
  return trimmed.final_states().empty();
}

bool IsSubsetOf(const Dfa& a, const Dfa& b) {
  return DfaIsEmptyLanguage(DifferenceDfa(a, b));
}

bool AreEquivalent(const Dfa& a, const Dfa& b) {
  return IsSubsetOf(a, b) && IsSubsetOf(b, a);
}

std::vector<bool> UsefulStates(const Dfa& a) {
  int n = a.num_states();
  std::vector<bool> reach(n, false), coreach(n, false);
  if (n == 0) return reach;
  std::queue<int> queue;
  reach[a.initial()] = true;
  queue.push(a.initial());
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop();
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState && !reach[to]) {
        reach[to] = true;
        queue.push(to);
      }
    }
  }
  std::vector<std::vector<int>> rev(n);
  for (int s = 0; s < n; ++s) {
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState) rev[to].push_back(s);
    }
  }
  for (int s = 0; s < n; ++s) {
    if (a.IsFinal(s) && !coreach[s]) {
      coreach[s] = true;
      queue.push(s);
    }
  }
  while (!queue.empty()) {
    int s = queue.front();
    queue.pop();
    for (int from : rev[s]) {
      if (!coreach[from]) {
        coreach[from] = true;
        queue.push(from);
      }
    }
  }
  std::vector<bool> useful(n, false);
  for (int s = 0; s < n; ++s) useful[s] = reach[s] && coreach[s];
  return useful;
}

bool DfaIsFinite(const Dfa& a) {
  // Finite iff the useful part is acyclic.
  std::vector<bool> useful = UsefulStates(a);
  int n = a.num_states();
  std::vector<int> color(n, 0);  // 0 white, 1 gray, 2 black
  // Iterative DFS cycle detection restricted to useful states.
  for (int root = 0; root < n; ++root) {
    if (!useful[root] || color[root] != 0) continue;
    std::vector<std::pair<int, size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [s, i] = stack.back();
      if (i >= a.alphabet().size()) {
        color[s] = 2;
        stack.pop_back();
        continue;
      }
      int to = a.NextByIndex(s, static_cast<int>(i));
      ++i;
      if (to == kNoState || !useful[to]) continue;
      if (color[to] == 1) return false;  // back edge: cycle
      if (color[to] == 0) {
        color[to] = 1;
        stack.push_back({to, 0});
      }
    }
  }
  return true;
}

std::optional<std::string> ShortestWord(const Dfa& a) {
  if (a.num_states() == 0) return std::nullopt;
  // BFS exploring symbols in sorted order gives length-then-lex minimality.
  std::vector<bool> seen(a.num_states(), false);
  std::queue<std::pair<int, std::string>> queue;
  seen[a.initial()] = true;
  queue.push({a.initial(), ""});
  while (!queue.empty()) {
    auto [s, word] = queue.front();
    queue.pop();
    if (a.IsFinal(s)) return word;
    for (size_t i = 0; i < a.alphabet().size(); ++i) {
      int to = a.NextByIndex(s, static_cast<int>(i));
      if (to != kNoState && !seen[to]) {
        seen[to] = true;
        queue.push({to, word + a.alphabet()[i]});
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> ShortestWordEnfa(const Enfa& a) {
  return ShortestWord(Determinize(a));
}

Result<std::vector<std::string>> EnumerateFiniteLanguage(const Dfa& a,
                                                         size_t max_words) {
  if (!DfaIsFinite(a)) {
    return Status::FailedPrecondition(
        "EnumerateFiniteLanguage: language is infinite");
  }
  // The longest word of a finite language visits each useful state at most
  // once, so num_states is a safe length bound.
  return WordsUpToLength(a, a.num_states(), max_words);
}

Result<std::vector<std::string>> WordsUpToLength(const Dfa& a, int max_length,
                                                 size_t max_words) {
  std::vector<std::string> words;
  if (a.num_states() == 0) return words;
  std::vector<bool> useful = UsefulStates(a);
  if (!useful[a.initial()]) return words;

  // DFS over (state, depth); the DFA is deterministic so each word is
  // produced at most once. Exploring symbols in sorted order plus a final
  // stable sort by length gives (length, lex) order.
  std::string current;
  struct Frame {
    int state;
    size_t symbol = 0;
  };
  std::vector<Frame> stack{{a.initial()}};
  if (a.IsFinal(a.initial())) words.push_back("");
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.symbol >= a.alphabet().size() ||
        static_cast<int>(stack.size()) - 1 >= max_length) {
      stack.pop_back();
      if (!current.empty()) current.pop_back();
      continue;
    }
    size_t i = frame.symbol++;
    int to = a.NextByIndex(frame.state, static_cast<int>(i));
    if (to == kNoState || !useful[to]) continue;
    current.push_back(a.alphabet()[i]);
    if (a.IsFinal(to)) {
      if (words.size() >= max_words) {
        return Status::OutOfRange("WordsUpToLength: more than " +
                                  std::to_string(max_words) + " words");
      }
      words.push_back(current);
    }
    stack.push_back(Frame{to});
  }
  std::stable_sort(words.begin(), words.end(),
                   [](const std::string& x, const std::string& y) {
                     if (x.size() != y.size()) return x.size() < y.size();
                     return x < y;
                   });
  return words;
}

std::vector<uint64_t> CountWordsByLength(const Dfa& a, int max_length) {
  std::vector<uint64_t> counts(max_length + 1, 0);
  if (a.num_states() == 0) return counts;
  // Dynamic programming over path counts (capped to avoid overflow).
  constexpr uint64_t kCap = ~0ULL / 2;
  std::vector<uint64_t> at(a.num_states(), 0);
  at[a.initial()] = 1;
  for (int len = 0; len <= max_length; ++len) {
    for (int s = 0; s < a.num_states(); ++s) {
      if (at[s] > 0 && a.IsFinal(s)) {
        counts[len] = std::min(kCap, counts[len] + at[s]);
      }
    }
    if (len == max_length) break;
    std::vector<uint64_t> next(a.num_states(), 0);
    for (int s = 0; s < a.num_states(); ++s) {
      if (at[s] == 0) continue;
      for (size_t i = 0; i < a.alphabet().size(); ++i) {
        int to = a.NextByIndex(s, static_cast<int>(i));
        if (to != kNoState) next[to] = std::min(kCap, next[to] + at[s]);
      }
    }
    at = std::move(next);
  }
  return counts;
}

}  // namespace rpqres
