// bench/fig3_16_gadgets — regenerates the gadget figures: verifies every
// hardness gadget of the paper against its language (pre-gadget conditions
// of Def 4.3, hypergraph of matches of Def 4.7, condensation to an odd
// path per Def 4.9), mirroring the authors' sanity-check tool [3].
//
// Figures 6 and 12 are *candidate reconstructions* (their exact wiring is
// not recoverable from the paper text); their rows report the verifier's
// honest verdict.

#include <iostream>
#include <optional>
#include <vector>

#include "gadgets/chain_cycle.h"
#include "gadgets/gadget.h"
#include "gadgets/paper_gadgets.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/repeated_letter.h"
#include "util/table.h"

using namespace rpqres;

namespace {

int failures = 0;

void Report(TextTable* table, const std::string& figure,
            const std::string& regex, const PreGadget& gadget,
            bool reconstruction = false) {
  Language lang = Language::MustFromRegexString(regex);
  Result<GadgetVerification> v = VerifyGadget(lang, gadget);
  std::string facts = std::to_string(gadget.db.num_facts() + 2);
  if (!v.ok()) {
    table->AddRow({figure, regex, facts, "-", "-",
                   "ERROR: " + v.status().ToString()});
    if (!reconstruction) ++failures;
    return;
  }
  table->AddRow(
      {figure, regex, facts, std::to_string(v->matches.edges.size()),
       v->valid ? std::to_string(v->odd_path.path_edges) : "-",
       v->valid ? "valid gadget"
                : (reconstruction ? "candidate rejected: " + v->reason
                                  : "INVALID: " + v->reason)});
  if (!v->valid && !reconstruction) ++failures;
}

}  // namespace

int main() {
  std::cout << "=== Figures 3-16: hardness gadget verification ===\n"
            << "(columns: completed facts | matches | condensed odd-path "
               "length)\n\n";
  TextTable table;
  table.SetHeader({"figure", "language", "facts", "matches", "ℓ",
                   "verdict"});

  Report(&table, "Fig 3b", "aa", AaGadget());
  Report(&table, "Fig 4a", "axb|cxd", AxbCxdGadget());

  {  // Fig 5: Case 1, instantiated for axb|cxd via its stable legs.
    Language lang = Language::MustFromRegexString("axb|cxd");
    std::optional<FourLeggedWitness> witness = *FindFourLeggedWitness(lang);
    if (witness && witness->stable) {
      Report(&table, "Fig 5", "axb|cxd",
             FourLeggedCase1Gadget(*witness));
      // And for a wordier four-legged language.
      Language wide = Language::MustFromRegexString("abxcd|efxgh");
      std::optional<FourLeggedWitness> wide_witness =
          *FindFourLeggedWitness(wide);
      if (wide_witness && wide_witness->stable) {
        Report(&table, "Fig 5", "abxcd|efxgh",
               FourLeggedCase1Gadget(*wide_witness));
      }
    } else {
      table.AddRow({"Fig 5", "axb|cxd", "-", "-", "-",
                    "no stable witness found"});
      ++failures;
    }
  }
  {  // Fig 6: Case 2 candidates for axb|cxd|cxb.
    Language lang = Language::MustFromRegexString("axb|cxd|cxb");
    std::optional<FourLeggedWitness> witness = *FindFourLeggedWitness(lang);
    if (witness) {
      for (const PreGadget& candidate :
           FourLeggedCase2Candidates(*witness)) {
        Report(&table, "Fig 6*", "axb|cxd|cxb", candidate,
               /*reconstruction=*/true);
      }
    }
  }

  Report(&table, "Fig 7", "aya", RepeatedLetterGadget('a', "y", ""));
  Report(&table, "Fig 7", "aa", RepeatedLetterGadget('a', "", ""));
  Report(&table, "Fig 8", "ayazz", RepeatedLetterGadget('a', "y", "zz"));
  Report(&table, "Fig 8", "aab",
         RepeatedLetterGadget('a', "", "b"));
  Report(&table, "Fig 9", "aba|bab", AbaBabGadget());
  Report(&table, "Fig 10", "aaa", AaaGadget());
  Report(&table, "Fig 11", "aab", AabGadget());
  {  // Fig 12 candidates for axya|yax.
    for (const PreGadget& candidate : AxEtaYaCandidates('a', 'x', "", 'y')) {
      Report(&table, "Fig 12*", "axya|yax", candidate,
             /*reconstruction=*/true);
    }
  }
  Report(&table, "Fig 13", "ab|bc|ca", AbBcCaGadget());
  Report(&table, "Fig 15", "abcd|be|ef", AbcdGadget());
  Report(&table, "Fig 16", "abcd|bef", AbcdGadget());

  // Fig 13 generalized to other odd-cycle chain languages (extension:
  // each verified gadget certifies NP-hardness via Prp 4.11, supporting
  // the paper's conjecture for non-bipartite chain languages).
  for (const char* regex :
       {"axb|byc|cza", "ab|bc|cd|de|ea", "axyb|bc|ca"}) {
    Language lang = Language::MustFromRegexString(regex);
    Result<PreGadget> gadget =
        BuildNonBipartiteChainGadget(InfixFreeSublanguage(lang));
    if (gadget.ok()) {
      Report(&table, "Fig 13+", regex, *gadget);
    } else {
      table.AddRow({"Fig 13+", regex, "-", "-", "-",
                    gadget.status().ToString()});
      ++failures;
    }
  }

  table.Print(std::cout);
  std::cout << "\n(*) reconstruction candidates — see EXPERIMENTS.md\n"
            << "(Fig 13+) extension rows: odd-cycle chain languages "
               "beyond the paper's Prp 7.4\n";
  std::cout << "Failures on paper-transcribed gadgets: " << failures
            << "\n";
  return failures == 0 ? 0 : 1;
}
