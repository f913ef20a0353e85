#include "gadgets/chain_cycle.h"

#include <algorithm>
#include <map>
#include <queue>

#include "lang/chain.h"
#include "util/check.h"

namespace rpqres {

PreGadget OddChainCycleGadget(const std::vector<std::string>& cycle_words) {
  const size_t m = cycle_words.size();
  RPQRES_CHECK_MSG(m >= 3 && m % 2 == 1,
                   "need an odd cycle of at least 3 words");
  for (size_t i = 0; i < m; ++i) {
    RPQRES_CHECK_MSG(cycle_words[i].size() >= 2, "words must have length 2+");
    RPQRES_CHECK_MSG(cycle_words[i].back() == cycle_words[(i + 1) % m][0],
                     "words must chain around the cycle");
  }

  PreGadget g;
  g.name = "Fig13-general(odd chain cycle)";
  g.label = cycle_words[0][0];  // x_1
  GraphDb* db = &g.db;
  g.t_in = db->AddNode("tin");
  g.t_out = db->AddNode("tout");

  // Spine: m+2 segments, segment i spelling w_{(i−1) mod m}[1:] — once
  // around the cycle plus two more segments (w1, w2 again). Segment m+1
  // parallels w1, and m+2 is the last, so the side arm (re-spelling w1
  // from t_out into segment m+1's end) closes the Fig 13 shape: its two
  // matches are {F_out, side} and {side, segment m+2}. m odd makes the
  // total match count (m+2) + 2 odd. For m = 3 this is exactly Fig 13.
  NodeId current = g.t_in;
  NodeId side_anchor = -1;  // end node of segment m+1
  for (size_t i = 1; i <= m + 2; ++i) {
    const std::string& word = cycle_words[(i - 1) % m];
    current = AddPathFrom(db, current, word.substr(1));
    if (i == m + 1) side_anchor = current;
  }
  RPQRES_CHECK(side_anchor >= 0);
  // Side arm: t_out re-spells w_1[1:] into the spine at the side anchor.
  AddPathInto(db, g.t_out, cycle_words[0].substr(1), side_anchor);
  return g;
}

Result<PreGadget> BuildNonBipartiteChainGadget(const Language& ifl) {
  ChainAnalysis chain = AnalyzeChain(ifl);
  if (!chain.is_chain) {
    return Status::FailedPrecondition(
        "not a chain language: " + chain.violation);
  }
  EndpointGraph endpoint_graph = BuildEndpointGraph(chain.words);
  if (BipartitionEndpointGraph(endpoint_graph)) {
    return Status::FailedPrecondition(
        "endpoint graph is bipartite (PTIME by Prp 7.6)");
  }

  // Word digraph on endpoint letters: arc x→y per word xμy (|word| >= 2).
  std::map<char, std::vector<const std::string*>> arcs;
  for (const std::string& w : chain.words) {
    if (w.size() >= 2 && w.front() != w.back()) {
      arcs[w.front()].push_back(&w);
    }
  }

  // Shortest odd closed walk via BFS on (letter, parity). A closed odd
  // walk yields a word sequence that chains around consistently.
  std::string reasons;
  for (const auto& [start, unused] : arcs) {
    (void)unused;
    std::map<std::pair<char, int>, std::pair<char, const std::string*>>
        parent;
    std::queue<std::pair<char, int>> queue;
    queue.push({start, 0});
    parent[{start, 0}] = {'\0', nullptr};
    bool found = false;
    while (!queue.empty() && !found) {
      auto [letter, parity] = queue.front();
      queue.pop();
      for (const std::string* word : arcs[letter]) {
        std::pair<char, int> next = {word->back(), 1 - parity};
        if (parent.count(next)) continue;
        parent[next] = {letter, word};
        if (next == std::make_pair(start, 1)) {
          found = true;
          break;
        }
        queue.push(next);
      }
    }
    if (!found) continue;
    // Reconstruct the word sequence (walk of odd length ending at start).
    std::vector<std::string> cycle;
    std::pair<char, int> state = {start, 1};
    while (parent[state].second != nullptr) {
      cycle.push_back(*parent[state].second);
      state = {parent[state].first, 1 - state.second};
    }
    std::reverse(cycle.begin(), cycle.end());
    if (cycle.size() < 3) continue;  // 1-cycles impossible for chains

    PreGadget candidate = OddChainCycleGadget(cycle);
    Result<GadgetVerification> v = VerifyGadget(ifl, candidate);
    if (v.ok() && v->valid) return candidate;
    reasons += std::string("\n  cycle at '") + start + "': " +
               (v.ok() ? v->reason : v.status().ToString());
  }
  return Status::NotFound(
      "no odd word cycle yielded a verified gadget for " +
      ifl.description() + reasons);
}

}  // namespace rpqres
