// Tests for the hypergraph of matches (Def 4.7) and minimum hitting sets.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "gadgets/hypergraph.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "lang/language.h"
#include "resilience/exact.h"

namespace rpqres {
namespace {

TEST(HypergraphOfMatchesTest, AaOnPath) {
  // Path a a a: matches {0,1} and {1,2}.
  GraphDb db = PathDb("aaa");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->num_vertices, 3);
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1}, {1, 2}}));
}

TEST(HypergraphOfMatchesTest, MatchesAreSetsUnderFactReuse) {
  // a self-loop + a: the walk (loop, loop) realizes aa with ONE fact.
  GraphDb db;
  NodeId u = db.AddNode();
  db.AddFact(u, 'a', u);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0}}));
}

TEST(HypergraphOfMatchesTest, UnionLanguage) {
  GraphDb db = PathDb("abc");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("ab|bc"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1}, {1, 2}}));
}

TEST(HypergraphOfMatchesTest, InfiniteLanguageOnDag) {
  GraphDb db = PathDb("axxb");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("ax*b"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1, 2, 3}}));
}

TEST(HypergraphOfMatchesTest, InfiniteLanguageOnCycleRejected) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'x', v);
  db.AddFact(v, 'x', u);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("ax*b"), db);
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kFailedPrecondition);
}

// The cycle test reads live facts only: on an overlay whose one cycle
// closes through a tombstoned fact, ax*b has finitely many walks, and
// the hitting-set solve agrees with the branch & bound.
TEST(HypergraphOfMatchesTest, InfiniteLanguageOnOverlayWithDeadCycle) {
  GraphDb flat;
  NodeId s = flat.AddNode("s"), u = flat.AddNode("u"), v = flat.AddNode("v"),
         t = flat.AddNode("t");
  flat.AddFact(s, 'a', u);  // 0
  flat.AddFact(u, 'x', v);  // 1
  flat.AddFact(v, 'x', u);  // 2: closes the only cycle
  flat.AddFact(v, 'b', t);  // 3
  auto base = std::make_shared<const GraphDb>(std::move(flat));
  const Language lang = Language::MustFromRegexString("ax*b");

  GraphDb live = GraphDb::MakeOverlay(base);
  live.AddFact(u, 'b', t);  // 4
  Result<Hypergraph> cyclic = HypergraphOfMatches(lang, live);
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.status().code(), StatusCode::kFailedPrecondition);

  GraphDb overlay = GraphDb::MakeOverlay(base);
  overlay.AddFact(u, 'b', t);  // 4
  ASSERT_TRUE(overlay.RemoveFact(v, 'x', u).ok());
  Result<Hypergraph> h = HypergraphOfMatches(lang, overlay);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1, 3}, {0, 4}}));
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> hitting =
        SolveHittingSetResilience(lang, overlay, semantics);
    Result<ResilienceResult> exact =
        SolveExactResilience(lang, overlay, semantics);
    ASSERT_TRUE(hitting.ok()) << hitting.status();
    ASSERT_TRUE(exact.ok()) << exact.status();
    EXPECT_EQ(hitting->value, exact->value);
    EXPECT_EQ(hitting->value, 1);
  }
}

TEST(HypergraphOfMatchesTest, FiniteLanguageOnCycleOk) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'a', v);
  db.AddFact(v, 'a', u);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1}}));
}

TEST(HypergraphOfMatchesTest, NamesRenderFacts) {
  GraphDb db;
  NodeId u = db.AddNode("u"), v = db.AddNode("v");
  db.AddFact(u, 'a', v);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("a"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->vertex_names[0], "a(u,v)");
  EXPECT_NE(h->ToString().find("a(u,v)"), std::string::npos);
}

TEST(MinimumHittingSetTest, SmallCases) {
  Hypergraph h;
  h.num_vertices = 4;
  h.edges = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(MinimumHittingSetSize(h), 2);  // {1, 2} or {1, 3}
  h.edges = {{0}, {1}, {2}};
  EXPECT_EQ(MinimumHittingSetSize(h), 3);
  h.edges = {};
  EXPECT_EQ(MinimumHittingSetSize(h), 0);
  h.edges = {{0, 1, 2, 3}};
  EXPECT_EQ(MinimumHittingSetSize(h), 1);
  h.edges = {{}};
  EXPECT_EQ(MinimumHittingSetSize(h), -1);  // infeasible
}

TEST(MinimumHittingSetTest, EqualsResilienceOfMatches) {
  // RES_set(Q_L, D) = min hitting set of H_{L,D} by definition.
  GraphDb db = PathDb("aaaa");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(MinimumHittingSetSize(*h), 2);
}

TEST(NormalizeTest, DeduplicatesEdges) {
  Hypergraph h;
  h.num_vertices = 3;
  h.edges = {{2, 1}, {1, 2}, {0}};
  h.Normalize();
  EXPECT_EQ(h.edges, (std::vector<std::vector<int>>{{0}, {1, 2}}));
}

}  // namespace
}  // namespace rpqres
