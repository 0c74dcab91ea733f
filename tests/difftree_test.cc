#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <utility>

#include "cost/cost_model.h"
#include "difftree/builder.h"
#include "difftree/difftree.h"
#include "difftree/enumerate.h"
#include "difftree/match.h"
#include "difftree/normalize.h"
#include "difftree/selection.h"
#include "obs/metrics.h"
#include "reference_matcher.h"
#include "rollout_states.h"
#include "rules/rule.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

Ast Q(const std::string& sql) {
  auto q = ParseQuery(sql);
  EXPECT_TRUE(q.ok()) << sql;
  return *q;
}

TEST(DiffTree, FromAstRoundTrip) {
  Ast q = Q("select a from t where x = 1");
  DiffTree d = DiffTree::FromAst(q);
  EXPECT_EQ(d.ChoiceCount(), 0u);
  auto back = d.ToAst();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, q);
}

TEST(DiffTree, SeqAndEmptyExpansion) {
  DiffTree seq = DiffTree::Seq({DiffTree::FromAst(Col("a")), DiffTree::Empty(),
                                DiffTree::FromAst(Col("b"))});
  auto nodes = seq.ToAstSequence();
  ASSERT_TRUE(nodes.ok());
  ASSERT_EQ(nodes->size(), 2u);
  EXPECT_EQ((*nodes)[0].value, "a");
  EXPECT_EQ((*nodes)[1].value, "b");
}

TEST(DiffTree, ToAstFailsOnChoices) {
  DiffTree any = DiffTree::Any({DiffTree::FromAst(Col("a"))});
  EXPECT_FALSE(any.ToAst().ok());
}

TEST(DiffTree, CanonicalHashIgnoresAnyOrder) {
  DiffTree a = DiffTree::Any({DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("b"))});
  DiffTree b = DiffTree::Any({DiffTree::FromAst(Col("b")), DiffTree::FromAst(Col("a"))});
  EXPECT_NE(a.Hash(), b.Hash());  // structural hash is order-sensitive
  EXPECT_EQ(a.CanonicalHash(), b.CanonicalHash());
}

TEST(DiffTree, CanonicalHashKeepsAllOrder) {
  DiffTree a(Symbol::kList, "", {DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("b"))});
  DiffTree b(Symbol::kList, "", {DiffTree::FromAst(Col("b")), DiffTree::FromAst(Col("a"))});
  EXPECT_NE(a.CanonicalHash(), b.CanonicalHash());  // sequences are ordered
}

TEST(DiffTree, CanonicalHashInvariantUnderNestedAnyPermutation) {
  // Permutations at *every* ANY level must hash equal — this is the
  // transposition-table key, so a miss here would make parallel trees
  // re-evaluate states that only differ in alternative order.
  auto make = [](bool flip_outer, bool flip_inner) {
    DiffTree inner = flip_inner
        ? DiffTree::Any({DiffTree::FromAst(Col("c")), DiffTree::FromAst(Col("d"))})
        : DiffTree::Any({DiffTree::FromAst(Col("d")), DiffTree::FromAst(Col("c"))});
    std::vector<DiffTree> alts;
    if (flip_outer) {
      alts.push_back(DiffTree::FromAst(Col("a")));
      alts.push_back(std::move(inner));
    } else {
      alts.push_back(std::move(inner));
      alts.push_back(DiffTree::FromAst(Col("a")));
    }
    return DiffTree::Any(std::move(alts));
  };
  uint64_t h = make(false, false).CanonicalHash();
  EXPECT_EQ(make(false, true).CanonicalHash(), h);
  EXPECT_EQ(make(true, false).CanonicalHash(), h);
  EXPECT_EQ(make(true, true).CanonicalHash(), h);
}

TEST(DiffTree, CanonicalHashSeparatesSemanticallyDistinctTrees) {
  DiffTree leaf = DiffTree::FromAst(Col("a"));
  DiffTree any = DiffTree::Any({leaf, DiffTree::FromAst(Col("b"))});
  DiffTree opt = DiffTree::Opt(leaf);
  DiffTree multi = DiffTree::Multi(leaf);
  // Different choice kinds over the same children mean different query
  // sets; the canonical hash must keep them apart.
  EXPECT_NE(opt.CanonicalHash(), multi.CanonicalHash());
  EXPECT_NE(opt.CanonicalHash(), any.CanonicalHash());
  EXPECT_NE(any.CanonicalHash(), leaf.CanonicalHash());
  // Different leaf values too.
  EXPECT_NE(DiffTree::FromAst(Col("a")).CanonicalHash(),
            DiffTree::FromAst(Col("b")).CanonicalHash());
}

/// A random difftree whose ANYs (nested, 1-5 alternatives) often repeat an
/// alternative: leaves come from three columns.
DiffTree RandomAnyTree(Rng* rng, int depth) {
  const size_t pick = depth == 0 ? 0 : rng->UniformIndex(6);
  switch (pick) {
    case 0: {
      static const char* const kCols[] = {"a", "b", "c"};
      return DiffTree::FromAst(Col(kCols[rng->UniformIndex(3)]));
    }
    case 1:
      return DiffTree::Opt(RandomAnyTree(rng, depth - 1));
    case 2:
      return DiffTree(Symbol::kList, "",
                      {RandomAnyTree(rng, depth - 1), RandomAnyTree(rng, depth - 1)});
    default: {
      std::vector<DiffTree> alts;
      const size_t n = 1 + rng->UniformIndex(5);
      const DiffTree first = RandomAnyTree(rng, depth - 1);
      for (size_t k = 0; k < n; ++k) {
        alts.push_back(rng->Bernoulli(0.3) ? first : RandomAnyTree(rng, depth - 1));
      }
      return DiffTree::Any(std::move(alts));
    }
  }
}

TEST(DiffTree, AnyOrderRoundTripsShuffledTrees) {
  Rng rng(27);
  size_t reordered = 0;  // trees whose shuffle moved some alternative
  for (int round = 0; round < 120; ++round) {
    const DiffTree tree = RandomAnyTree(&rng, 1 + static_cast<int>(rng.UniformIndex(4)));
    const DiffTree shuffled = ShuffleAnys(tree, &rng);
    ASSERT_EQ(shuffled.CanonicalHash(), tree.CanonicalHash());
    // Sealed trees read the children's hashes from their caches.
    if (round % 2 == 0) SealCheckingNormal(tree);
    if (round % 3 == 0) SealCheckingNormal(shuffled);
    AnyOrder order;
    ASSERT_TRUE(RecordAnyOrder(tree, &order));
    DiffTree rebuilt;
    ASSERT_TRUE(ReorderAny(shuffled, order, &rebuilt)) << "round " << round;
    EXPECT_TRUE(rebuilt == tree) << "round " << round << "\n" << tree.ToSExpr() << "\n"
                                 << rebuilt.ToSExpr();
    EXPECT_EQ(rebuilt.Hash(), tree.Hash()) << "round " << round;
    if (shuffled.Hash() != tree.Hash()) ++reordered;
    // A record that runs short or long does not fit.
    if (!order.empty()) {
      AnyOrder shorter(order.begin(), order.end() - 1);
      EXPECT_FALSE(ReorderAny(shuffled, shorter, &rebuilt));
    }
    AnyOrder longer = order;
    longer.push_back(0);
    EXPECT_FALSE(ReorderAny(shuffled, longer, &rebuilt));
  }
  EXPECT_GT(reordered, 30u);
}

TEST(DiffTree, AnyOrderNeedsAByteSizedAny) {
  std::vector<DiffTree> alts;
  for (int i = 0; i < 257; ++i) alts.push_back(DiffTree::FromAst(Col("c" + std::to_string(i))));
  AnyOrder order;
  EXPECT_FALSE(RecordAnyOrder(DiffTree::Any(alts), &order));
  alts.pop_back();
  order.clear();
  EXPECT_TRUE(RecordAnyOrder(DiffTree::Any(alts), &order));
  EXPECT_EQ(order.size(), 256u);
}

TEST(DiffTree, NodeAtPaths) {
  DiffTree d = DiffTree::FromAst(Q("select a from t"));
  EXPECT_EQ(NodeAt(d, {})->sym, Symbol::kSelect);
  EXPECT_EQ(NodeAt(d, {0})->sym, Symbol::kProject);
  EXPECT_EQ(NodeAt(d, {1, 0})->sym, Symbol::kTable);
  EXPECT_EQ(NodeAt(d, {9}), nullptr);
}

TEST(Normalize, SpliceSeqAndDropEmpty) {
  DiffTree d(Symbol::kWhere, "",
             {DiffTree::Seq({DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("b"))}),
              DiffTree::Empty()});
  Normalize(&d);
  ASSERT_EQ(d.children.size(), 2u);
  EXPECT_EQ(d.children[0].value, "a");
  EXPECT_EQ(d.children[1].value, "b");
}

TEST(Normalize, CollapsesDegenerateChoices) {
  DiffTree opt = DiffTree::Opt(DiffTree::Empty());
  Normalize(&opt);
  EXPECT_TRUE(opt.IsEmptyLeaf());

  DiffTree mm = DiffTree::Multi(DiffTree::Multi(DiffTree::FromAst(Col("a"))));
  Normalize(&mm);
  EXPECT_EQ(mm.kind, DKind::kMulti);
  EXPECT_EQ(mm.children[0].kind, DKind::kAll);

  DiffTree mo = DiffTree::Multi(DiffTree::Opt(DiffTree::FromAst(Col("a"))));
  Normalize(&mo);
  EXPECT_EQ(mo.kind, DKind::kMulti);
  EXPECT_EQ(mo.children[0].kind, DKind::kAll);

  DiffTree oo = DiffTree::Opt(DiffTree::Opt(DiffTree::FromAst(Col("a"))));
  Normalize(&oo);
  EXPECT_EQ(oo.kind, DKind::kOpt);
  EXPECT_EQ(oo.children[0].kind, DKind::kAll);
}

TEST(Normalize, KnownNormalListIsDroppedOnEdit) {
  DiffTree t = *BuildInitialTree({Q("select a from t"), Q("select b from t where x = 1")});
  ASSERT_EQ(Normalized(t), t);
  Seal(t, /*normal=*/true);
  EXPECT_TRUE(t.children.KnownNormal());
  EXPECT_TRUE(std::as_const(t).children[1].children.KnownNormal());
  const DiffTree sealed = t;
  // The edit copies the sealed blocks on its path. Open copies are never
  // marked, or the next Normalize would skip the Seq below.
  t.children[1].children[0] =
      DiffTree::Seq({DiffTree::FromAst(Col("b")), DiffTree::FromAst(Col("c"))});
  EXPECT_FALSE(t.children.KnownNormal());
  EXPECT_FALSE(std::as_const(t).children[1].children.KnownNormal());
  EXPECT_TRUE(sealed.children.KnownNormal());
  Normalize(&t);
  EXPECT_EQ(t.ToSExpr(), Normalized(DeepCopy(t)).ToSExpr());
  EXPECT_EQ(t.children[1].children.size(), 4u);  // the Seq was spliced
}

TEST(Normalize, WellFormedAfter) {
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  std::string why;
  EXPECT_TRUE(IsWellFormed(d, &why)) << why;
}

TEST(Builder, InitialTreeIsAnyOverQueries) {
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  EXPECT_EQ(d.kind, DKind::kAny);
  EXPECT_EQ(d.children.size(), 2u);
  EXPECT_TRUE(ExpressesAll(d, queries));
}

TEST(Builder, EmptyLogFails) {
  EXPECT_FALSE(BuildInitialTree({}).ok());
}

TEST(Builder, SingleQueryStillWrapped) {
  DiffTree d = *BuildInitialTree({Q("select a from t")});
  EXPECT_EQ(d.kind, DKind::kAny);
}

TEST(Match, ExactQuery) {
  Ast q = Q("select a from t where x = 1");
  DiffTree d = DiffTree::FromAst(q);
  EXPECT_TRUE(MatchQuery(d, q).has_value());
  EXPECT_FALSE(MatchQuery(d, Q("select b from t")).has_value());
}

TEST(Match, AnyChoosesAlternative) {
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  auto m = MatchQuery(d, Q("select b from t"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->choice, 1);  // second alternative
  EXPECT_FALSE(MatchQuery(d, Q("select c from t")).has_value());
}

TEST(Match, OptionalClause) {
  // Select with OPT(Where): expresses both with and without the clause.
  Ast with = Q("select a from t where x = 1");
  Ast without = Q("select a from t");
  DiffTree d = DiffTree::FromAst(with);
  // Make the Where child optional by hand.
  DiffTree where = d.children[2];
  d.children[2] = DiffTree::Opt(std::move(where));
  EXPECT_TRUE(MatchQuery(d, with).has_value());
  EXPECT_TRUE(MatchQuery(d, without).has_value());
}

TEST(Match, MultiRepetition) {
  // And with MULTI(x = 1): matches 1..n conjuncts... a single conjunct
  // cannot be an And node in real SQL, so test at the Project list level:
  // Project with MULTI(ColExpr:a) matches any count of column a.
  DiffTree proj(Symbol::kProject, "");
  proj.children.push_back(DiffTree::Multi(DiffTree::FromAst(Col("a"))));
  Ast one(Symbol::kProject, "", {Col("a")});
  Ast three(Symbol::kProject, "", {Col("a"), Col("a"), Col("a")});
  Ast zero(Symbol::kProject, "");
  Ast other(Symbol::kProject, "", {Col("b")});
  EXPECT_TRUE(MatchQuery(proj, one).has_value());
  auto m3 = MatchQuery(proj, three);
  ASSERT_TRUE(m3.has_value());
  EXPECT_TRUE(MatchQuery(proj, zero).has_value());
  EXPECT_FALSE(MatchQuery(proj, other).has_value());
}

TEST(Match, MultiOfAnyMixesAlternatives) {
  DiffTree proj(Symbol::kProject, "");
  proj.children.push_back(DiffTree::Multi(
      DiffTree::Any({DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("b"))})));
  Ast mixed(Symbol::kProject, "", {Col("a"), Col("b"), Col("a")});
  EXPECT_TRUE(MatchQuery(proj, mixed).has_value());
}

TEST(Match, StepBudgetExhaustionIsCounted) {
  obs::Counter* exhausted = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_match_budget_exhausted_total", "");
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t where x = 1"),
                                  Q("select c from t")});
  Ast q = Q("select c from t");
  MatchOptions tiny;
  tiny.max_steps = 3;

  const uint64_t before = exhausted->Value();
  EXPECT_FALSE(MatchQuery(d, q, tiny).has_value());
  EXPECT_EQ(exhausted->Value(), before + 1);
  // Enumeration returns what it found before the cut-off (nothing here) and
  // counts the truncation too.
  EXPECT_TRUE(EnumerateDerivations(d, q, 8, tiny).empty());
  EXPECT_EQ(exhausted->Value(), before + 2);
  // With the default budget neither call is cut off, and the count holds.
  EXPECT_TRUE(MatchQuery(d, q).has_value());
  EXPECT_EQ(EnumerateDerivations(d, q, 8).size(), 1u);
  EXPECT_EQ(exhausted->Value(), before + 2);
}

TEST(Match, DerivationEncodesChoices) {
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  auto m0 = MatchQuery(d, Q("select a from t"));
  auto m1 = MatchQuery(d, Q("select b from t"));
  ASSERT_TRUE(m0 && m1);
  EXPECT_NE(m0->Encode(), m1->Encode());
}

TEST(Match, EnumerateDerivationsFindsAmbiguity) {
  // ANY(a, a): two parses of the same query.
  DiffTree d = DiffTree::Any(
      {DiffTree::FromAst(Q("select a from t")), DiffTree::FromAst(Q("select a from t"))});
  auto parses = EnumerateDerivations(d, Q("select a from t"), 10);
  EXPECT_EQ(parses.size(), 2u);
}

/// Encode() of the derivation of every parse ForEachParse visits, reusing
/// `trail`.
std::vector<std::string> VisitedEncodings(const DiffTree& d, const Ast& q, size_t limit,
                                          ParseTrail* trail) {
  std::vector<std::string> seen;
  const size_t n = ForEachParse(d, q, limit, trail, [&](const ParseTrail& t) {
    seen.push_back(DerivationOf(d, t).Encode());
    return false;
  });
  EXPECT_EQ(n, seen.size());
  return seen;
}

std::vector<std::string> EnumeratedEncodings(const DiffTree& d, const Ast& q, size_t limit) {
  std::vector<std::string> out;
  for (const Derivation& v : EnumerateDerivations(d, q, limit)) out.push_back(v.Encode());
  return out;
}

TEST(Match, ForEachParseFollowsEnumerateOrder) {
  // PROJECT(OPT(ANY(a, a)), MULTI(ANY(a, a))) parses PROJECT(a, a) eight
  // ways: OPT present (2) x one copy (2), and OPT absent x two copies (4).
  auto a_or_a = [] {
    return DiffTree::Any({DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("a"))});
  };
  DiffTree proj(Symbol::kProject, "");
  proj.children.push_back(DiffTree::Opt(a_or_a()));
  proj.children.push_back(DiffTree::Multi(a_or_a()));
  const Ast aa(Symbol::kProject, "", {Col("a"), Col("a")});

  ParseTrail trail;
  const std::vector<std::string> all = EnumeratedEncodings(proj, aa, 100);
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(VisitedEncodings(proj, aa, 100, &trail), all);

  // `limit` caps the visits; a visitor returning true stops at once.
  EXPECT_EQ(VisitedEncodings(proj, aa, 3, &trail),
            std::vector<std::string>(all.begin(), all.begin() + 3));
  EXPECT_EQ(ForEachParse(proj, aa, 0, &trail, [](const ParseTrail&) { return false; }), 0u);
  size_t calls = 0;
  EXPECT_EQ(ForEachParse(proj, aa, 100, &trail,
                         [&](const ParseTrail&) { return ++calls == 2; }),
            2u);
  EXPECT_EQ(calls, 2u);

  // A cut-off search is counted once.
  obs::Counter* exhausted = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_match_budget_exhausted_total", "");
  MatchOptions tiny;
  tiny.max_steps = 3;
  const uint64_t before = exhausted->Value();
  EXPECT_EQ(ForEachParse(proj, aa, 100, &trail, [](const ParseTrail&) { return false; }, tiny),
            0u);
  EXPECT_EQ(exhausted->Value(), before + 1);

  // One trail reused across trees gives what a fresh match gives.
  const std::vector<Ast> log = {Q("select top 10 a from t where x = 1 and y = 2"),
                                Q("select b from t"), Q("select a, b from t where x = 3")};
  const DiffTree built = *BuildInitialTree(log);
  for (const Ast& q : log) {
    EXPECT_EQ(VisitedEncodings(built, q, 8, &trail), EnumeratedEncodings(built, q, 8));
    EXPECT_EQ(VisitedEncodings(proj, aa, 8, &trail), all);
  }
  EXPECT_EQ(exhausted->Value(), before + 1);
}

TEST(Match, TrailRecordsPositionalChoices) {
  // PROJECT(OPT(ANY(a, b)), MULTI(ANY(a, OPT(b)))): choice ids 0..4 in
  // pre-order. PROJECT(a, b, a) parses first as OPT present with a, then
  // two copies: b (through the OPT) and a.
  DiffTree proj(Symbol::kProject, "");
  proj.children.push_back(DiffTree::Opt(
      DiffTree::Any({DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("b"))})));
  proj.children.push_back(DiffTree::Multi(DiffTree::Any(
      {DiffTree::FromAst(Col("a")), DiffTree::Opt(DiffTree::FromAst(Col("b")))})));
  const Ast q(Symbol::kProject, "", {Col("a"), Col("b"), Col("a")});
  ParseTrail trail;
  std::vector<std::vector<int>> first;  // {id, value, end} per step
  ASSERT_EQ(ForEachParse(proj, q, 1, &trail, [&](const ParseTrail& t) {
              for (const ParseStep& s : t) first.push_back({s.id, s.value, static_cast<int>(s.end)});
              return false;
            }),
            1u);
  const std::vector<std::vector<int>> want = {
      {0, 1, 0}, {1, 0, 0},             // OPT present, ANY picks a
      {2, 2, 6},                        // MULTI: two copies, steps 3..5
      {3, 1, 0}, {4, 1, 0},             // copy 1: ANY picks OPT(b), present
      {3, 0, 0}};                       // copy 2: ANY picks a
  EXPECT_EQ(first, want);
  EXPECT_EQ(DerivationOf(proj, trail).Encode(), EnumerateDerivations(proj, q, 1)[0].Encode());
}

std::vector<std::string> Encodings(const std::vector<Derivation>& ds) {
  std::vector<std::string> out;
  for (const Derivation& d : ds) out.push_back(d.Encode());
  return out;
}

/// Compares EnumerateDerivations and MatchQuery with the reference matcher
/// on one (tree, query, limit, budget): the same parses in the same order,
/// and the same exhaustion, seen through the counter. Returns the
/// reference's step count.
size_t ExpectMatchesReference(const DiffTree& d, const Ast& q, size_t limit,
                              const MatchOptions& opts, const std::string& where) {
  obs::Counter* exhausted = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_match_budget_exhausted_total", "");
  const reference::MatchRun want = reference::Enumerate(d, q, limit, opts);
  uint64_t before = exhausted->Value();
  EXPECT_EQ(Encodings(EnumerateDerivations(d, q, limit, opts)), Encodings(want.parses))
      << where;
  EXPECT_EQ(exhausted->Value() - before, want.exhausted ? 1u : 0u) << where;

  const std::optional<Derivation> first = reference::Match(d, q, opts);
  before = exhausted->Value();
  const std::optional<Derivation> got = MatchQuery(d, q, opts);
  EXPECT_EQ(got.has_value(), first.has_value()) << where;
  if (got && first) EXPECT_EQ(got->Encode(), first->Encode()) << where;
  // MatchQuery counts its own cut-off, which may differ from the full
  // enumeration's (it stops at the first parse).
  EXPECT_EQ(exhausted->Value() - before,
            reference::Enumerate(d, q, 1, opts).exhausted ? 1u : 0u)
      << where;
  return want.steps;
}

TEST(Match, TrailMatcherMatchesReferenceOnRolloutStates) {
  for (const char* workload : {"sdss", "flights", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    std::vector<DiffTree> states = RolloutStates(queries, 5, 20, 0.8);
    for (DiffTree& s : RolloutStates(queries, 7, 20, 0.0)) states.push_back(std::move(s));
    for (size_t i = 0; i < states.size(); ++i) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const std::string where = std::string(workload) + " state " + std::to_string(i) +
                                  " query " + std::to_string(qi);
        const size_t steps = ExpectMatchesReference(states[i], queries[qi], 8, {}, where);
        // Budgets that cut the same search off part of the way through, or
        // one step before its end.
        for (size_t cut : {size_t{3}, steps / 2, steps - 1}) {
          MatchOptions tiny;
          tiny.max_steps = cut;
          ExpectMatchesReference(states[i], queries[qi], 8, tiny,
                                 where + " max_steps " + std::to_string(cut));
        }
      }
    }
  }
}

/// A random difftree over the columns a and b: the kind of nesting (MULTI
/// copies of ANYs of sequences) that parses a long column list in thousands
/// of ways, so searches run past the dead-continuation memo's step
/// threshold.
DiffTree RandomChoiceTree(Rng* rng, int depth) {
  const size_t pick = depth == 0 ? rng->UniformIndex(2) : rng->UniformIndex(8);
  switch (pick) {
    case 0:
      return DiffTree::FromAst(Col("a"));
    case 1:
      return DiffTree::FromAst(Col("b"));
    case 2:
    case 3:
      return DiffTree::Any({RandomChoiceTree(rng, depth - 1), RandomChoiceTree(rng, depth - 1),
                            RandomChoiceTree(rng, depth - 1)});
    case 4:
      return DiffTree::Opt(RandomChoiceTree(rng, depth - 1));
    case 5:
    case 6:
      return DiffTree::Multi(RandomChoiceTree(rng, depth - 1));
    default:
      return DiffTree::Seq({RandomChoiceTree(rng, depth - 1), RandomChoiceTree(rng, depth - 1)});
  }
}

TEST(Match, TrailMatcherMatchesReferenceOnAmbiguousTrees) {
  Rng rng(2024);
  size_t long_searches = 0;  // past the memo's threshold
  size_t long_with_parses = 0;
  for (int round = 0; round < 120; ++round) {
    // PROJECT(ANY(SEQ(MULTI(x), c), MULTI(y)), z): the first alternative
    // parses the columns many ways and fails at c (the query has none), so
    // every continuation it reaches is dead; the second may then parse.
    DiffTree proj(Symbol::kProject, "");
    proj.children.push_back(DiffTree::Any(
        {DiffTree::Seq({DiffTree::Multi(RandomChoiceTree(&rng, 2)), DiffTree::FromAst(Col("c"))}),
         DiffTree::Multi(RandomChoiceTree(&rng, 2))}));
    proj.children.push_back(RandomChoiceTree(&rng, 2));
    std::vector<Ast> cols;
    const size_t n = 7 + rng.UniformIndex(8);
    for (size_t k = 0; k < n; ++k) cols.push_back(Col(rng.Bernoulli(0.7) ? "a" : "b"));
    const Ast q(Symbol::kProject, "", cols);
    MatchOptions opts;
    opts.max_steps = 200'000;
    const std::string where = "round " + std::to_string(round);
    const size_t steps = ExpectMatchesReference(proj, q, 8, opts, where);
    if (steps <= 20'000) continue;
    ++long_searches;
    if (!reference::Enumerate(proj, q, 8, opts).parses.empty()) ++long_with_parses;
    for (size_t cut : {steps / 3, steps - 1}) {
      MatchOptions tiny;
      tiny.max_steps = cut;
      ExpectMatchesReference(proj, q, 8, tiny, where + " max_steps " + std::to_string(cut));
    }
  }
  EXPECT_GT(long_searches, 5u);
  EXPECT_GT(long_with_parses, 0u);
}

TEST(Match, ExpandDerivationInvertsMatch) {
  std::vector<Ast> queries = {Q("select top 10 a from t where x = 1 and y = 2"),
                              Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  for (const Ast& q : queries) {
    auto m = MatchQuery(d, q);
    ASSERT_TRUE(m.has_value());
    auto back = MaterializeDerivation(*m);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, q);
  }
}

TEST(Match, DefaultDerivationMaterializes) {
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  Derivation def = DefaultDerivation(d);
  auto q = MaterializeDerivation(def);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, Q("select a from t"));
}

TEST(Selection, ChoiceIndexIdsAreStable) {
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  ChoiceIndex idx(d);
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.node(0), &d);  // the root ANY is choice 0
  EXPECT_FALSE(d.children[0].IsChoice());
}

TEST(Selection, StickySemantics) {
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  StickyState state(d);
  std::vector<int> changed;
  ASSERT_TRUE(state.Step(d, Q("select a from t"), kParseLimit, &changed));
  EXPECT_EQ(changed.size(), 1u);  // first configuration sets the widget
  ASSERT_TRUE(state.Step(d, Q("select a from t"), kParseLimit, &changed));
  EXPECT_EQ(changed.size(), 0u);  // same query: nothing changes
  ASSERT_TRUE(state.Step(d, Q("select b from t"), kParseLimit, &changed));
  EXPECT_EQ(changed.size(), 1u);
}

TEST(Enumerate, CoversInitialLanguage) {
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  std::vector<Ast> all = EnumerateQueries(d, 100);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_DOUBLE_EQ(CountExpressible(d), 2.0);
}

TEST(Enumerate, OptDoublesCount) {
  Ast with = Q("select a from t where x = 1");
  DiffTree d = DiffTree::FromAst(with);
  DiffTree where = d.children[2];
  d.children[2] = DiffTree::Opt(std::move(where));
  EXPECT_DOUBLE_EQ(CountExpressible(d), 2.0);
  auto all = EnumerateQueries(d, 10);
  EXPECT_EQ(all.size(), 2u);
}

TEST(Enumerate, EnumeratedQueriesAreExpressible) {
  std::vector<Ast> queries = {Q("select a from t where x = 1"),
                              Q("select b from t where x = 2"),
                              Q("select b from u")};
  DiffTree d = *BuildInitialTree(queries);
  for (const Ast& q : EnumerateQueries(d, 50)) {
    EXPECT_TRUE(MatchQuery(d, q).has_value()) << q.ToSExpr();
  }
}

TEST(DiffTreeLabel, RendersFragments) {
  DiffTree top = DiffTree::FromAst(Ast(Symbol::kTop, "10"));
  EXPECT_EQ(DiffTreeLabel(top), "top 10");
  DiffTree any = DiffTree::Any({top});
  EXPECT_EQ(DiffTreeLabel(any), "▾");
}

// ---------------------------------------------------------------------------
// Copy-on-write children: copies share blocks, and sealed blocks cache the
// children's hashes and counts.

/// Hash, CanonicalHash, NodeCount and ChoiceCount of `t`, in that order.
std::vector<uint64_t> FactsOf(const DiffTree& t) {
  return {t.Hash(), t.CanonicalHash(), t.NodeCount(), t.ChoiceCount()};
}

TEST(DiffTree, CopyOnWrite) {
  const DiffTree base = *BuildInitialTree(
      {Q("select a from t where x = 1"), Q("select b from t where y = 2 and z = 3"),
       Q("select c, d from u")});
  const std::string sexpr = base.ToSExpr();
  const std::vector<uint64_t> facts = FactsOf(DeepCopy(base));
  ASSERT_EQ(FactsOf(base), facts);

  // Every non-const accessor, on a copy of an open tree and of a sealed one,
  // whose caches are filled.
  const std::vector<std::function<void(DiffTree*)>> edits = {
      [](DiffTree* t) { t->children[0].value = "edited"; },
      [](DiffTree* t) {
        for (DiffTree& c : t->children.Mutable()) c.children.Mutable().clear();
      },
      [](DiffTree* t) { t->children.Mutable().back().kind = DKind::kOpt; },
      [](DiffTree* t) { t->children.push_back(DiffTree::Empty()); },
      [](DiffTree* t) { t->children.Mutable().pop_back(); },
      [](DiffTree* t) { t->children = {}; },
      [](DiffTree* t) { MutableNodeAt(t, {1, 2, 0})->value = "deep"; },
      [](DiffTree* t) { MutableNodeAt(t, {2, 0})->children[1] = DiffTree::Empty(); },
  };
  for (const bool sealed : {false, true}) {
    const DiffTree original = DeepCopy(base);
    if (sealed) SealCheckingNormal(original);
    EXPECT_EQ(original.children.facts() != nullptr, sealed);
    for (size_t e = 0; e < edits.size(); ++e) {
      DiffTree copy = original;
      EXPECT_EQ(&std::as_const(copy).children[0], &original.children[0]);  // one block
      ASSERT_EQ(FactsOf(copy), facts);
      edits[e](&copy);
      EXPECT_NE(copy.children.begin(), original.children.begin()) << e;
      EXPECT_NE(copy.ToSExpr(), sexpr) << e;
      EXPECT_EQ(original.ToSExpr(), sexpr) << e;
      EXPECT_EQ(FactsOf(original), facts) << e;
      EXPECT_EQ(FactsOf(copy), FactsOf(DeepCopy(copy))) << e;
      SealCheckingNormal(copy);  // fills the copy's new blocks, keeping what they carried
      EXPECT_EQ(FactsOf(copy), FactsOf(DeepCopy(copy))) << e;
    }
  }

  // Caches fill only once sealed: sharing an open block fills nothing.
  DiffTree mine = DeepCopy(base);
  EXPECT_EQ(mine.children.facts(), nullptr);
  {
    const DiffTree other = mine;
    ASSERT_EQ(FactsOf(other), facts);
    EXPECT_EQ(mine.children.facts(), nullptr);
  }
  SealCheckingNormal(mine);
  ASSERT_NE(mine.children.facts(), nullptr);
  // An edit copies the sealed block; the copy is open, so it hands out no
  // facts until it is sealed in turn.
  mine.children[0].value = "changed";
  EXPECT_EQ(mine.children.facts(), nullptr);
  EXPECT_EQ(FactsOf(mine), FactsOf(DeepCopy(mine)));
  EXPECT_NE(mine.Hash(), facts[0]);
  SealCheckingNormal(mine);
  ASSERT_NE(mine.children.facts(), nullptr);
  EXPECT_EQ(FactsOf(mine), FactsOf(DeepCopy(mine)));
}

TEST(DiffTree, ConcurrentCacheFill) {
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  const RuleEngine rules;
  const std::vector<DiffTree> states = RolloutStates(queries, 5, 12, 0.8);
  // Hashes and counts of a state and of up to 16 of its successors.
  auto summarize = [&](const DiffTree& t) {
    std::vector<uint64_t> out = FactsOf(t);
    std::vector<RuleApplication> apps = rules.EnumerateApplications(t);
    out.push_back(apps.size());
    for (size_t a = 0; a < apps.size() && a < 16; ++a) {
      auto next = rules.Apply(t, apps[a]);
      out.push_back(next.ok() ? 1 : 0);
      if (!next.ok()) continue;
      for (uint64_t f : FactsOf(*next)) out.push_back(f);
    }
    return out;
  };
  std::vector<std::vector<uint64_t>> serial;
  for (const DiffTree& s : states) serial.push_back(summarize(DeepCopy(s)));

  // Every thread works on its own copies of the same sealed states, so the
  // threads read the same caches and carry them into their path copies.
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<uint64_t>>> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const DiffTree& s : states) {
        const DiffTree mine = s;
        parallel[static_cast<size_t>(t)].push_back(summarize(mine));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(parallel[static_cast<size_t>(t)], serial) << "thread " << t;
  }
}

/// Every block's facts in `t`, pre-order, as numbers; open blocks add none.
void CollectFacts(const DiffTree& t, std::vector<uint64_t>* out) {
  if (const ChildFacts* f = t.children.facts()) {
    for (size_t i = 0; i < t.children.size(); ++i) {
      out->insert(out->end(), {f[i].hash, f[i].canonical_hash, f[i].nodes, f[i].choices});
    }
  }
  for (const DiffTree& c : t.children) CollectFacts(c, out);
}

// Threads seal copies of one open tree, so they race to claim its blocks; a
// thread that loses a claim skips the block. Each also rewrites its copy
// before and after its seal, until every thread has sealed, so its path
// copies detach from blocks that other threads are still sealing and must
// carry only published facts. Once the threads are done, every block holds
// what a serial seal fills.
TEST(DiffTree, ConcurrentSealOfSharedBlocks) {
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  const RuleEngine rules;
  size_t checked = 0;
  for (const DiffTree& state : RolloutStates(queries, 13, 8, 0.8)) {
    const DiffTree serial = DeepCopy(state);
    const bool normal = Normalized(serial) == serial;
    Seal(serial, normal);
    std::vector<uint64_t> want;
    CollectFacts(serial, &want);
    // Up to 16 applications spread over the tree.
    const std::vector<RuleApplication> all = rules.EnumerateApplications(serial);
    std::vector<RuleApplication> apps;
    for (size_t a = 0; a < all.size(); a += std::max<size_t>(1, all.size() / 16)) {
      apps.push_back(all[a]);
    }
    std::vector<uint64_t> want_next;
    for (const RuleApplication& app : apps) {
      auto next = rules.Apply(serial, app);
      if (next.ok()) CollectFacts(*next, &want_next);
    }

    for (int round = 0; round < 4; ++round) {
      const DiffTree shared = DeepCopy(state);  // open, and shared by every thread
      constexpr size_t kThreads = 4;
      std::atomic<size_t> started{0};
      std::atomic<size_t> sealed{0};
      std::vector<std::vector<uint64_t>> summary(kThreads);
      std::vector<std::vector<DiffTree>> nexts(kThreads);
      std::vector<std::thread> threads;
      for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          started.fetch_add(1);
          while (started.load() < kThreads) std::this_thread::yield();
          const DiffTree mine = shared;
          // Thread t seals after t passes of rewrites, so the others rewrite
          // while it holds the root's claim.
          for (size_t pass = 0;; ++pass) {
            if (pass == t) {
              Seal(mine, normal);
              sealed.fetch_add(1);
            }
            nexts[t].clear();
            for (const RuleApplication& app : apps) {
              auto next = rules.Apply(mine, app);
              if (next.ok()) nexts[t].push_back(std::move(next).MoveValueUnsafe());
            }
            if (pass >= t && sealed.load() == kThreads) break;
          }
          summary[t] = FactsOf(mine);
        });
      }
      for (std::thread& th : threads) th.join();
      std::vector<uint64_t> got;
      CollectFacts(shared, &got);
      EXPECT_EQ(got, want);
      for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(summary[t], FactsOf(serial)) << "thread " << t;
        std::vector<uint64_t> got_next;
        for (const DiffTree& next : nexts[t]) CollectFacts(next, &got_next);
        EXPECT_EQ(got_next, want_next) << "thread " << t;
      }
    }
    ++checked;
  }
  EXPECT_EQ(checked, 8u);
}

}  // namespace
}  // namespace ifgen
