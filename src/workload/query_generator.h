// rpqres — workload/query_generator: class-stratified random regex
// generation.
//
// Each Figure 1 cell the solvers specialize on (local / bipartite chain /
// one-dangling / NP-hard) gets its own template family; candidates are
// drawn from the family, then verified *post hoc* through the real
// classifier, so a generated query is guaranteed to actually land in its
// target cell — the generator can be wrong, the classifier cannot. The
// extra kBoundary class mutates a query from a random cell by one edit,
// producing adversarial near-boundary languages whose cell is whatever
// the classifier says it is.

#ifndef RPQRES_WORKLOAD_QUERY_GENERATOR_H_
#define RPQRES_WORKLOAD_QUERY_GENERATOR_H_

#include <array>
#include <string>

#include "classify/classifier.h"
#include "util/rng.h"
#include "util/status.h"

namespace rpqres {
namespace workload {

/// The stratification target of a generated query: the three solver-backed
/// PTIME cells of Figure 1, the hard column, and near-boundary mutants.
enum class QueryClass {
  kLocal,        ///< IF(L) local (Thm 3.13 applies)
  kBcl,          ///< IF(L) a bipartite chain language (Prp 7.6)
  kOneDangling,  ///< IF(L) one-dangling or mirrored (Prp 7.9)
  kHard,         ///< classified NP-hard (exact solver territory)
  kBoundary,     ///< one-edit mutant of another class; any cell accepted
};

inline constexpr std::array<QueryClass, 5> kAllQueryClasses = {
    QueryClass::kLocal, QueryClass::kBcl, QueryClass::kOneDangling,
    QueryClass::kHard, QueryClass::kBoundary};

/// Stable lowercase name ("local", "bcl", "one-dangling", "hard",
/// "boundary") for reports and JSON.
const char* QueryClassName(QueryClass c);

/// A generated query with its post-hoc classifier verdict.
struct GeneratedQuery {
  std::string regex;
  QueryClass target = QueryClass::kLocal;
  Classification classification;
  /// Candidates drawn (including the accepted one) before one passed
  /// verification.
  int attempts = 0;
};

/// Draws a random query targeted at `target`, retrying up to
/// `max_attempts` candidates until the classifier confirms the cell
/// (ResourceExhausted-style Internal error if none passes — with the
/// shipped templates this is not expected for any seed).
Result<GeneratedQuery> GenerateQuery(Rng* rng, QueryClass target,
                                     int max_attempts = 64);

/// True iff `classification` lands in `target`'s cell (kBoundary accepts
/// every non-error verdict). Exposed for tests and the oracle report.
bool MatchesQueryClass(QueryClass target,
                       const Classification& classification);

}  // namespace workload
}  // namespace rpqres

#endif  // RPQRES_WORKLOAD_QUERY_GENERATOR_H_
