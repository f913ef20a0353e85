#include "lang/tractable.h"

#include <utility>

#include "lang/local.h"

namespace rpqres {

TractableForm FindTractableForm(const Language& ifl) {
  TractableForm form;
  if (ifl.ContainsEpsilon() || ifl.IsEmpty()) return form;
  if (IsLocal(ifl)) {
    form.kind = TractableKind::kLocal;
    return form;
  }
  if (Result<BipartiteChain> chain = AnalyzeBipartiteChain(ifl); chain.ok()) {
    form.kind = TractableKind::kBipartiteChain;
    form.chain = *std::move(chain);
    return form;
  }
  form.one_dangling = FindOrientedOneDangling(ifl);
  if (form.one_dangling) form.kind = TractableKind::kOneDangling;
  return form;
}

}  // namespace rpqres
