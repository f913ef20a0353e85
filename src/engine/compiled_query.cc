#include "engine/compiled_query.h"

#include <chrono>
#include <utility>

#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "lang/tractable.h"

namespace rpqres {

Result<std::shared_ptr<const CompiledQuery>> CompileQuery(
    const std::string& regex, Semantics semantics,
    const CompileOptions& options) {
  auto start = std::chrono::steady_clock::now();

  RPQRES_ASSIGN_OR_RETURN(Language language,
                          Language::FromRegexString(regex));
  // IF(L) and its PTIME verdict are derived once and shared by the
  // classifier and the planner.
  Language ifl = InfixFreeSublanguage(language);
  TractableForm form = FindTractableForm(ifl);
  RPQRES_ASSIGN_OR_RETURN(Classification classification,
                          ClassifyResilienceWithIF(language, ifl, form));
  ResilienceOptions plan_options;
  plan_options.allow_exponential = options.allow_exponential;
  RPQRES_ASSIGN_OR_RETURN(
      ResiliencePlan plan,
      PlanResilienceWithIF(std::move(ifl), form, plan_options));

  auto compiled = std::make_shared<CompiledQuery>(CompiledQuery{
      regex, semantics, std::move(language), std::move(classification),
      std::move(plan), /*ro_tables_exact=*/std::nullopt,
      /*compile_micros=*/0});
  // Fixed-endpoint support: tables for L's own RO-εNFA, when L is local
  // (no IF fallback — the rewrite is unsound with fixed endpoints).
  if (Result<Enfa> exact_ro = BuildRoEnfa(compiled->language);
      exact_ro.ok()) {
    if (Result<RoProductTables> tables = BuildRoProductTables(*exact_ro);
        tables.ok()) {
      compiled->ro_tables_exact = *std::move(tables);
    }
  }
  compiled->compile_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  return std::shared_ptr<const CompiledQuery>(std::move(compiled));
}

}  // namespace rpqres
