#include "resilience/one_dangling_resilience.h"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string_view>

#include "automata/ops.h"
#include "flow/solver_scratch.h"
#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "resilience/local_product.h"
#include "util/check.h"

namespace rpqres {
namespace {

constexpr const char* kAlgorithm = "one-dangling flow (Prp 7.9)";

// Picks a letter absent from Σ(base) ∪ {x, y}, printable when possible.
std::optional<char> PickFreshLetter(const Language& base, char x, char y) {
  std::array<bool, 256> taken{};
  for (char c : base.used_letters()) taken[static_cast<unsigned char>(c)] = true;
  taken[static_cast<unsigned char>(x)] = true;
  taken[static_cast<unsigned char>(y)] = true;
  taken[static_cast<unsigned char>(kEpsilonSymbol)] = true;
  for (char c : std::string_view(
           "zwvutsrqponmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA0123456789")) {
    if (!taken[static_cast<unsigned char>(c)]) return c;
  }
  for (int c = 1; c < 256; ++c) {
    if (!taken[c]) return static_cast<char>(c);
  }
  return std::nullopt;
}

// Replaces the unique x-transition (s, x, t) of an RO-εNFA by
// (s, x, s') (s', z, t); the identity when there is no x-transition.
Enfa RewriteXtoXZ(const Enfa& ro, char x, char z) {
  Enfa out;
  out.AddStates(ro.num_states());
  for (int s : ro.initial_states()) out.AddInitial(s);
  for (int s : ro.final_states()) out.AddFinal(s);
  for (const EnfaTransition& t : ro.transitions()) {
    if (t.symbol == x) {
      int mid = out.AddState();
      out.AddTransition(t.from, x, mid);
      out.AddTransition(mid, z, t.to);
    } else {
      out.AddTransition(t.from, t.symbol, t.to);
    }
  }
  return out;
}

// The database as the plan reads it, through its label index: every
// edge reversed when `mirror`. Facts keep their ids, so a witness needs
// no translation back.
class OrientedDb {
 public:
  OrientedDb(const GraphDb& db, const LabelIndex& index, bool mirror)
      : db_(db), index_(index), mirror_(mirror) {}

  const GraphDb& db() const { return db_; }
  const LabelIndex& index() const { return index_; }
  NodeId source(FactId f) const {
    return mirror_ ? db_.fact(f).target : db_.fact(f).source;
  }
  NodeId target(FactId f) const {
    return mirror_ ? db_.fact(f).source : db_.fact(f).target;
  }

  // The live facts carrying `label` that leave / enter `v`.
  std::span<const FactId> OutWithLabel(NodeId v, char label) const {
    return mirror_ ? index_.FactsInto(label, v) : index_.FactsFrom(label, v);
  }
  std::span<const FactId> InWithLabel(NodeId v, char label) const {
    return mirror_ ? index_.FactsFrom(label, v) : index_.FactsInto(label, v);
  }

 private:
  const GraphDb& db_;
  const LabelIndex& index_;
  bool mirror_;
};

// The rewritten database D' of Prp 7.9 as a fact source for
// RunLocalProduct (local_product.h), over the oriented database D:
//  * nodes: D's nodes 0..V-1, then one (v,in) node V+k per node
//    v = in_origin[k] that has incoming x-facts;
//  * facts: D's facts under their own ids — x-facts retargeted to (v,in),
//    y-facts and facts labelled z dropped (the automaton reads neither) —
//    plus the z-fact (v,in) -z-> v as id F+k when its signed
//    multiplicity Xin(v) − Yout(v) is positive (F = D's fact-id range).
class RewrittenFacts {
 public:
  RewrittenFacts(const OneDanglingPlan& plan, const OrientedDb& d,
                 Semantics semantics, const SolverScratch& scratch)
      : t_(plan.tables),
        d_(d),
        semantics_(semantics),
        x_(plan.x),
        z_(plan.z),
        num_db_nodes_(d.db().num_nodes()),
        num_db_facts_(d.db().num_facts()),
        x_in_(scratch.x_in_cost),
        y_out_(scratch.y_out_cost),
        in_node_(scratch.in_node),
        in_origin_(scratch.in_origin) {}

  int num_nodes() const {
    return num_db_nodes_ + static_cast<int>(in_origin_.size());
  }
  NodeId origin(FactId z_fact) const {
    return in_origin_[z_fact - num_db_facts_];
  }
  Capacity ZMultiplicity(NodeId v) const { return x_in_[v] - y_out_[v]; }

  Fact fact(FactId f) const {
    if (f >= num_db_facts_) {
      return Fact{num_db_nodes_ + (f - num_db_facts_), z_, origin(f)};
    }
    const char label = d_.db().fact(f).label;
    const NodeId target = d_.target(f);
    return Fact{d_.source(f), label, label == x_ ? in_node_[target] : target};
  }
  Capacity Cost(FactId f) const {
    // Exogenous base facts keep cost +∞; x/y facts were checked
    // endogenous, so the signed z-multiplicities are finite.
    return f >= num_db_facts_ ? ZMultiplicity(origin(f))
                              : d_.db().Cost(f, semantics_);
  }

  // D is visited once per letter the state reads; in the Lemma 3.17
  // automaton and its x → xz rewrite that is at most one letter.
  template <typename Visit>
  void ForEachOut(NodeId v, int s, Visit&& visit) const {
    const unsigned char x = static_cast<unsigned char>(x_);
    const unsigned char z = static_cast<unsigned char>(z_);
    if (v >= num_db_nodes_) {  // (u,in): its one out-fact is the z-fact
      const NodeId u = in_origin_[v - num_db_nodes_];
      if (t_.letter_from[z] == s && ZMultiplicity(u) > 0) {
        visit(num_db_facts_ + (v - num_db_nodes_), u, z);
      }
      return;
    }
    for (int32_t i = t_.labels_out_offset[s]; i < t_.labels_out_offset[s + 1];
         ++i) {
      const unsigned char label = t_.labels_out[i];
      if (label == z) continue;  // z-facts only leave (v,in) nodes
      for (FactId f : d_.OutWithLabel(v, static_cast<char>(label))) {
        const NodeId target = d_.target(f);
        visit(f, label == x ? in_node_[target] : target, label);
      }
    }
  }

  template <typename Visit>
  void ForEachIn(NodeId v, int s, Visit&& visit) const {
    const unsigned char x = static_cast<unsigned char>(x_);
    const unsigned char z = static_cast<unsigned char>(z_);
    if (v >= num_db_nodes_) {  // (u,in): its in-facts are u's x-facts
      if (t_.letter_to[x] != s) return;
      for (FactId f : d_.InWithLabel(in_origin_[v - num_db_nodes_], x_)) {
        visit(f, d_.source(f), x);
      }
      return;
    }
    if (t_.letter_to[z] == s && in_node_[v] >= 0 && ZMultiplicity(v) > 0) {
      visit(num_db_facts_ + (in_node_[v] - num_db_nodes_), in_node_[v], z);
    }
    for (int32_t i = t_.labels_in_offset[s]; i < t_.labels_in_offset[s + 1];
         ++i) {
      const unsigned char label = t_.labels_in[i];
      // x-facts into v were retargeted to (v,in); D's z-labelled facts are
      // not part of D'.
      if (label == x || label == z) continue;
      for (FactId f : d_.InWithLabel(v, static_cast<char>(label))) {
        visit(f, d_.source(f), label);
      }
    }
  }

  template <typename Visit>
  void ForEachReadable(Visit&& visit) const {
    const unsigned char z = static_cast<unsigned char>(z_);
    for (int l = 0; l < 256; ++l) {
      if (l == z || t_.letter_from[l] < 0) continue;
      for (FactId f : d_.index().Facts(static_cast<char>(l))) visit(f);
    }
    if (t_.letter_from[z] < 0) return;
    for (size_t k = 0; k < in_origin_.size(); ++k) {
      if (ZMultiplicity(in_origin_[k]) > 0) {
        visit(num_db_facts_ + static_cast<FactId>(k));
      }
    }
  }

 private:
  const RoProductTables& t_;
  const OrientedDb& d_;
  Semantics semantics_;
  char x_, z_;
  NodeId num_db_nodes_;
  FactId num_db_facts_;
  const std::vector<Capacity>& x_in_;
  const std::vector<Capacity>& y_out_;
  const std::vector<int32_t>& in_node_;
  const std::vector<int32_t>& in_origin_;
};

}  // namespace

Result<OneDanglingPlan> PrepareOneDanglingPlan(
    const OneDanglingDecomposition& d) {
  OneDanglingPlan plan;
  // Only x is fresh: mirror so the fresh letter trails (Prp 6.3),
  // mirror(base ∪ {xy}) = mirror(base) ∪ {yx}. Reversing the base's
  // RO-εNFA keeps it read-once, and mirror(base) uses the same letters.
  plan.mirror_db = d.y_in_base;
  plan.x = d.y_in_base ? d.y : d.x;
  plan.y = d.y_in_base ? d.x : d.y;
  std::optional<char> z = PickFreshLetter(d.base, plan.x, plan.y);
  if (!z) {
    return Status::FailedPrecondition(
        "one-dangling plan: no letter is fresh for " + d.base.description());
  }
  plan.z = *z;
  RPQRES_ASSIGN_OR_RETURN(Enfa ro_base, BuildRoEnfa(d.base));
  if (plan.mirror_db) ro_base = EnfaMirror(ro_base);
  RPQRES_ASSIGN_OR_RETURN(plan.tables,
                          BuildRoProductTables(RewriteXtoXZ(ro_base, plan.x,
                                                            plan.z)));
  return plan;
}

Result<ResilienceResult> SolveOneDanglingResilienceWithPlan(
    const OneDanglingPlan& plan, const GraphDb& db, Semantics semantics,
    const LabelIndex& index, SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  ResilienceResult result;
  result.algorithm = kAlgorithm;
  if (plan.tables.accepts_epsilon) {
    result.infinite = true;
    return result;
  }
  const OrientedDb d(db, index, plan.mirror_db);
  // The signed-multiplicity rewrite of Prp 7.9 manipulates x/y costs
  // arithmetically, which has no meaningful extension to +∞ costs.
  bool exogenous_xy = false;
  for (char label : {plan.x, plan.y}) {
    for (FactId f : index.Facts(label)) exogenous_xy |= db.IsExogenous(f);
  }
  if (exogenous_xy) {
    return Status::Unimplemented(
        "one-dangling flow: exogenous x/y-labeled facts are not supported "
        "(the κ/z-multiplicity accounting is arithmetic)");
  }

  // --- The rewrite D -> D', per node ----------------------------------------
  // Xin(v) = total cost of x-facts into v, Yout(v) = total cost of y-facts
  // out of v. κ = Σ_v Yout(v); the z-multiplicity of v is Xin(v) − Yout(v);
  // non-positive z-facts are removed for free, which contributes
  // free_cost = Σ_v min(0, Xin(v) − Yout(v)).
  const int num_nodes = db.num_nodes();
  std::vector<Capacity>& x_in = scratch->x_in_cost;
  std::vector<Capacity>& y_out = scratch->y_out_cost;
  x_in.assign(num_nodes, 0);
  y_out.assign(num_nodes, 0);
  Capacity kappa = 0;
  for (FactId f : index.Facts(plan.x)) {
    x_in[d.target(f)] += db.Cost(f, semantics);
  }
  for (FactId f : index.Facts(plan.y)) {
    y_out[d.source(f)] += db.Cost(f, semantics);
    kappa += db.Cost(f, semantics);
  }
  Capacity free_cost = 0;
  std::vector<int32_t>& in_node = scratch->in_node;
  std::vector<int32_t>& in_origin = scratch->in_origin;
  in_node.assign(num_nodes, -1);
  in_origin.clear();
  for (NodeId v = 0; v < num_nodes; ++v) {
    free_cost += std::min<Capacity>(0, x_in[v] - y_out[v]);
    if (x_in[v] > 0) {
      in_node[v] = num_nodes + static_cast<int32_t>(in_origin.size());
      in_origin.push_back(v);
    }
  }

  // --- Solve the local instance and combine --------------------------------
  // D' carries costs, not multiplicities (the x/y arithmetic already
  // happened under `semantics`), so RewrittenFacts::Cost is final.
  const RewrittenFacts rewritten(plan, d, semantics, *scratch);
  RunLocalProduct(plan.tables, rewritten, /*fixed_source=*/-1,
                  /*fixed_target=*/-1, scratch, &result);
  if (result.infinite) {
    // A base-language walk made of exogenous facts only (ε ∉ base was
    // checked above): the query cannot be falsified.
    return result;
  }
  result.value += free_cost + kappa;

  // --- Witness mapping (Claim 7.10 (ii)) ------------------------------------
  // The cut is in D' ids: keep D's non-x facts as they are, and note which
  // x-facts and z-facts it took.
  const FactId num_facts = db.num_facts();
  std::vector<uint8_t>& cut = scratch->fact_cut;
  cut.assign(num_facts + in_origin.size(), 0);
  std::vector<FactId>& contingency = result.contingency;
  size_t kept = 0;
  for (FactId f : contingency) {
    cut[f] = 1;
    if (f < num_facts && db.fact(f).label != plan.x) contingency[kept++] = f;
  }
  contingency.resize(kept);
  // Only nodes with x-facts into them have a (v,in) node. Elsewhere there
  // is nothing to cut for the xy-pairs: y is fresh, so y-facts appear in
  // no other match.
  for (size_t k = 0; k < in_origin.size(); ++k) {
    const NodeId v = in_origin[k];
    // A non-positive z-fact is removed for free.
    const bool z_removed = rewritten.ZMultiplicity(v) <= 0 ||
                           cut[num_facts + static_cast<FactId>(k)];
    if (z_removed) {
      // Case (a): take every x-fact into v.
      for (FactId f : d.InWithLabel(v, plan.x)) contingency.push_back(f);
    } else {
      // Case (b): take every y-fact out of v, plus the cut x-facts into v.
      for (FactId f : d.OutWithLabel(v, plan.y)) contingency.push_back(f);
      for (FactId f : d.InWithLabel(v, plan.x)) {
        if (cut[f]) contingency.push_back(f);
      }
    }
  }
  std::sort(contingency.begin(), contingency.end());
  contingency.erase(std::unique(contingency.begin(), contingency.end()),
                    contingency.end());

#ifndef NDEBUG
  Capacity witness_cost = 0;
  for (FactId f : contingency) witness_cost += db.Cost(f, semantics);
  RPQRES_CHECK(witness_cost == result.value);
#endif
  return result;
}

Result<ResilienceResult> SolveOneDanglingResilience(const Language& lang,
                                                    const GraphDb& db,
                                                    Semantics semantics) {
  return SolveOneDanglingResilience(lang, db, semantics, LabelIndex(db));
}

Result<ResilienceResult> SolveOneDanglingResilience(const Language& lang,
                                                    const GraphDb& db,
                                                    Semantics semantics,
                                                    const LabelIndex& index) {
  Language ifl = InfixFreeSublanguage(lang);
  if (ifl.ContainsEpsilon()) {
    ResilienceResult result;
    result.infinite = true;
    result.algorithm = kAlgorithm;
    return result;
  }
  std::optional<OneDanglingDecomposition> found =
      FindOneDanglingDecomposition(ifl);
  if (!found) {
    return Status::FailedPrecondition(
        "SolveOneDanglingResilience: IF(" + lang.description() +
        ") is not one-dangling");
  }
  RPQRES_ASSIGN_OR_RETURN(OneDanglingPlan plan, PrepareOneDanglingPlan(*found));
  return SolveOneDanglingResilienceWithPlan(plan, db, semantics, index);
}

}  // namespace rpqres
