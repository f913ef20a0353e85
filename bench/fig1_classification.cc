// bench/fig1_classification — regenerates Figure 1: the complexity
// classification of the paper's 21 example languages, with the expected
// column from the figure, plus the endpoint graphs of Example 7.3/Fig 14.

#include <iostream>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "lang/chain.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "util/table.h"

using namespace rpqres;

namespace {

struct Fig1Row {
  const char* regex;
  const char* expected;  // column in Figure 1
  const char* region;    // which labeled region of the figure
};

const std::vector<Fig1Row>& Fig1Languages() {
  static const std::vector<Fig1Row> kRows = {
      {"abc|abd", "PTIME", "local (Thm 3.13)"},
      {"ab|ad|cd", "PTIME", "local (Thm 3.13)"},
      {"ax*b", "PTIME", "local (Thm 3.13)"},
      {"ab|bc", "PTIME", "bipartite chain (Prp 7.6)"},
      {"axb|byc", "PTIME", "bipartite chain (Prp 7.6)"},
      {"abc|be", "PTIME", "one-dangling (Prp 7.9)"},
      {"abcd|ce", "PTIME", "one-dangling (Prp 7.9)"},
      {"abcd|be", "PTIME", "one-dangling (Prp 7.9)"},
      {"ax*b|xd", "PTIME", "one-dangling (Prp 7.9)"},
      {"axb|cxd", "NP-hard", "four-legged (Thm 5.3)"},
      {"ax*b|cxd", "NP-hard", "four-legged (Thm 5.3)"},
      {"b(aa)*d", "NP-hard", "four-legged, non-star-free (Lem 5.6)"},
      {"aa", "NP-hard", "finite, repeated letter (Thm 6.1)"},
      {"aaaa", "NP-hard", "finite, repeated letter (Thm 6.1)"},
      {"abca|cab", "NP-hard", "finite, repeated letter (Thm 6.1)"},
      {"ab|bc|ca", "NP-hard", "non-bipartite chain (Prp 7.4)"},
      {"abcd|be|ef", "NP-hard", "explicit gadget (Prp 7.11)"},
      {"abcd|bef", "NP-hard", "explicit gadget (Prp 7.11)"},
      {"abc|bcd", "UNCLASSIFIED", "open (finite)"},
      {"abc|bef", "UNCLASSIFIED", "open (finite)"},
      {"ab*c|ba", "UNCLASSIFIED", "open (infinite)"},
      {"ab*d|ac*d|bc", "UNCLASSIFIED", "open (infinite)"},
  };
  return kRows;
}

}  // namespace

int main() {
  std::cout << "=== Figure 1: classification of the paper's example "
               "languages ===\n\n";
  TextTable table;
  table.SetHeader({"language", "computed", "rule", "expected (Fig 1)",
                   "match"});
  int mismatches = 0;
  for (const Fig1Row& row : Fig1Languages()) {
    Language lang = Language::MustFromRegexString(row.regex);
    Result<Classification> c = ClassifyResilience(lang);
    if (!c.ok()) {
      table.AddRow({row.regex, "ERROR", c.status().ToString(),
                    row.expected, "✗"});
      ++mismatches;
      continue;
    }
    bool match =
        std::string(ComplexityClassName(c->complexity)) == row.expected;
    if (!match) ++mismatches;
    table.AddRow({row.regex, ComplexityClassName(c->complexity), c->rule,
                  std::string(row.expected) + " / " + row.region,
                  match ? "✓" : "✗"});
  }
  table.Print(std::cout);
  std::cout << "\nMismatches vs Figure 1: " << mismatches << "\n";

  std::cout << "\n=== Figure 14: endpoint graphs of Example 7.3 ===\n";
  for (const char* regex : {"ab|bc", "axyb|bztc|cd|dea", "ab|bc|ca"}) {
    Language lang = Language::MustFromRegexString(regex);
    Language ifl = InfixFreeSublanguage(lang);
    ChainAnalysis chain = AnalyzeChain(ifl);
    std::cout << "\n" << regex << ": chain language? "
              << (chain.is_chain ? "yes" : "no");
    if (!chain.is_chain) {
      std::cout << " (" << chain.violation << ")";
      std::cout << "\n";
      continue;
    }
    EndpointGraph graph = BuildEndpointGraph(chain.words);
    std::cout << "\n  endpoint edges:";
    for (auto [a, b] : graph.edges) {
      std::cout << " {" << a << "," << b << "}";
    }
    auto coloring = BipartitionEndpointGraph(graph);
    std::cout << "\n  bipartite? " << (coloring ? "yes" : "no");
    if (coloring) {
      std::cout << "  (";
      for (auto [letter, color] : *coloring) {
        std::cout << letter << ":" << (color == 0 ? "S" : "T") << " ";
      }
      std::cout << ")";
    }
    std::cout << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}
