#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "difftree/builder.h"
#include "difftree/enumerate.h"
#include "difftree/match.h"
#include "difftree/normalize.h"
#include "rollout_states.h"
#include "rules/rule.h"
#include "search/search_common.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "workload/loader.h"
#include "workload/sdss.h"
#include "workload/synthetic.h"

namespace ifgen {
namespace {

Ast Q(const std::string& sql) {
  auto q = ParseQuery(sql);
  EXPECT_TRUE(q.ok()) << sql;
  return *q;
}

std::vector<RuleApplication> AppsOf(const RuleEngine& engine, const DiffTree& tree,
                                    std::string_view rule_name, int param = -2) {
  std::vector<RuleApplication> out;
  for (const RuleApplication& app : engine.EnumerateApplications(tree)) {
    if (engine.RuleName(app) == rule_name && (param == -2 || app.param == param)) {
      out.push_back(app);
    }
  }
  return out;
}

TEST(Rules, InitialFanoutSmall) {
  RuleEngine engine;
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  auto apps = engine.EnumerateApplications(d);
  EXPECT_GE(apps.size(), 2u);  // Any2All + Lift at least
}

TEST(Rules, Any2AllFactorsSharedStructure) {
  RuleEngine engine;
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  auto apps = AppsOf(engine, d, "Any2All", 0);
  ASSERT_FALSE(apps.empty());
  DiffTree next = *engine.Apply(d, apps[0]);
  // Root becomes the shared Select; the From subtree is fully shared.
  EXPECT_EQ(next.kind, DKind::kAll);
  EXPECT_EQ(next.sym, Symbol::kSelect);
  EXPECT_TRUE(ExpressesAll(next, queries));
  // One choice remains: the projection column.
  EXPECT_EQ(next.ChoiceCount(), 1u);
}

TEST(Rules, Any2AllAlignsMissingClauseAsOptional) {
  RuleEngine engine;
  std::vector<Ast> queries = {Q("select a from t where x = 1"), Q("select a from t")};
  DiffTree d = *BuildInitialTree(queries);
  auto apps = AppsOf(engine, d, "Any2All", 0);
  ASSERT_FALSE(apps.empty());
  DiffTree next = *engine.Apply(d, apps[0]);
  EXPECT_TRUE(ExpressesAll(next, queries));
  // The Where column carries an Empty alternative -> Optional applies.
  EXPECT_FALSE(AppsOf(engine, next, "Optional", 0).empty());
}

TEST(Rules, Any2AllPositionalPairsDifferentSymbols) {
  RuleEngine engine;
  // objid vs count(*): symbol-LCS cannot pair them; positional can
  // (paper Figure 6a: one radio with both options). The divergence sits one
  // level down, so factor the root first.
  std::vector<Ast> queries = {Q("select objid from t"), Q("select count(*) from t")};
  DiffTree d = *BuildInitialTree(queries);
  d = *engine.Apply(d, AppsOf(engine, d, "Any2All", 0)[0]);
  // At the root level the alternatives' child symbols agree, so the
  // positional variant is suppressed there...
  EXPECT_TRUE(AppsOf(engine, d, "Any2All", 1).empty() ||
              NodeAt(d, AppsOf(engine, d, "Any2All", 1)[0].path) != &d);
  // ...but the projection ANY exposes it.
  auto pos = AppsOf(engine, d, "Any2All", 1);
  ASSERT_FALSE(pos.empty());
  DiffTree next = *engine.Apply(d, pos[0]);
  EXPECT_TRUE(ExpressesAll(next, queries));
  // One leaf ANY pairing the two projections; exact coverage of the log.
  EXPECT_EQ(next.ChoiceCount(), 1u);
  EXPECT_DOUBLE_EQ(CountExpressible(next), 2.0);
}

TEST(Rules, LiftKeepsWholeBodies) {
  RuleEngine engine;
  std::vector<Ast> queries = {Q("select a from t where x = 1"),
                              Q("select b from u where y = 2")};
  DiffTree d = *BuildInitialTree(queries);
  auto apps = AppsOf(engine, d, "Lift");
  ASSERT_FALSE(apps.empty());
  DiffTree next = *engine.Apply(d, apps[0]);
  EXPECT_EQ(next.sym, Symbol::kSelect);
  // Lift does not grow the language: whole bodies stay alternatives.
  EXPECT_DOUBLE_EQ(CountExpressible(next), 2.0);
  EXPECT_TRUE(ExpressesAll(next, queries));
}

TEST(Rules, MergeRemovesDuplicates) {
  RuleEngine engine;
  std::vector<Ast> queries = {Q("select a from t"), Q("select a from t"),
                              Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  auto apps = AppsOf(engine, d, "Merge");
  ASSERT_EQ(apps.size(), 1u);
  DiffTree next = *engine.Apply(d, apps[0]);
  EXPECT_EQ(next.kind, DKind::kAny);
  EXPECT_EQ(next.children.size(), 2u);
  EXPECT_TRUE(ExpressesAll(next, queries));
}

TEST(Rules, MergeCollapsesToSingleton) {
  RuleEngine engine;
  std::vector<Ast> queries = {Q("select a from t"), Q("select a from t")};
  DiffTree d = *BuildInitialTree(queries);
  auto apps = AppsOf(engine, d, "Merge");
  ASSERT_EQ(apps.size(), 1u);
  DiffTree next = *engine.Apply(d, apps[0]);
  EXPECT_EQ(next.ChoiceCount(), 0u);  // collapsed to the plain AST
}

TEST(Rules, OptionalBothDirections) {
  RuleEngine engine;
  DiffTree any = DiffTree::Any({DiffTree::Empty(), DiffTree::FromAst(Col("a"))});
  DiffTree host(Symbol::kProject, "", {any});
  auto fwd = AppsOf(engine, host, "Optional", 0);
  ASSERT_EQ(fwd.size(), 1u);
  DiffTree opted = *engine.Apply(host, fwd[0]);
  EXPECT_EQ(opted.children[0].kind, DKind::kOpt);

  auto bwd = AppsOf(engine, opted, "Optional", 1);
  ASSERT_EQ(bwd.size(), 1u);
  DiffTree back = *engine.Apply(opted, bwd[0]);
  EXPECT_EQ(back.children[0].kind, DKind::kAny);
  // Round trip is language-exact.
  EXPECT_DOUBLE_EQ(CountExpressible(back), CountExpressible(host));
}

TEST(Rules, NoopUnwrapsSingletonAny) {
  RuleEngine engine;
  DiffTree host(Symbol::kProject, "",
                {DiffTree::Any({DiffTree::FromAst(Col("a"))})});
  auto apps = AppsOf(engine, host, "Noop", 0);
  ASSERT_EQ(apps.size(), 1u);
  DiffTree next = *engine.Apply(host, apps[0]);
  EXPECT_EQ(next.ChoiceCount(), 0u);
}

// Noop has only its unwrap direction: a wrap (x -> ANY(x)) would apply at
// nearly every ALL node, plain ASTs included.
TEST(Rules, NoopOnlyUnwraps) {
  const RuleEngine engine;
  EXPECT_TRUE(AppsOf(engine, DiffTree::FromAst(Q("select a from t")), "Noop").empty());
  const DiffTree host(Symbol::kProject, "",
                      {DiffTree::Any({DiffTree::FromAst(Col("a"))}), DiffTree::FromAst(Col("b"))});
  const std::vector<RuleApplication> unwrap = AppsOf(engine, host, "Noop");
  ASSERT_EQ(unwrap.size(), 1u);
  EXPECT_EQ(unwrap[0].param, 0);
  EXPECT_EQ(unwrap[0].path, TreePath{0});
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    for (const DiffTree& s : RolloutStates(queries, 31, 40, 0.5)) {
      for (const RuleApplication& app : AppsOf(engine, s, "Noop")) {
        EXPECT_EQ(app.param, 0) << workload;
        const DiffTree* node = NodeAt(s, app.path);
        ASSERT_NE(node, nullptr);
        EXPECT_EQ(node->kind, DKind::kAny) << workload;
        EXPECT_EQ(node->children.size(), 1u) << workload;
      }
    }
  }
}

TEST(Rules, MultiRunPattern) {
  RuleEngine engine;
  // Project(a, a, a) has a run of identical children.
  DiffTree proj(Symbol::kProject, "",
                {DiffTree::FromAst(Col("a")), DiffTree::FromAst(Col("a")),
                 DiffTree::FromAst(Col("a"))});
  auto apps = AppsOf(engine, proj, "Multi");
  ASSERT_FALSE(apps.empty());
  DiffTree next = *engine.Apply(proj, apps[0]);
  ASSERT_EQ(next.children.size(), 1u);
  EXPECT_EQ(next.children[0].kind, DKind::kMulti);
  // The MULTI expresses the original 3-column projection.
  Ast three(Symbol::kProject, "", {Col("a"), Col("a"), Col("a")});
  EXPECT_TRUE(MatchQuery(next, three).has_value());
}

TEST(Rules, MultiRepeatUnionOnVaryingCounts) {
  RuleEngine engine;
  // Queries with 1 vs 2 conjuncts produce, after factoring, an ANY whose
  // alternatives are sequences of Between nodes of differing length.
  std::vector<Ast> queries = {Q("select a from t where u between 0 and 1"),
                              Q("select a from t where u between 0 and 1 and "
                                "g between 2 and 3")};
  DiffTree d = *BuildInitialTree(queries);
  // Factor the root, then the Where column, exposing And bodies.
  for (int i = 0; i < 4; ++i) {
    auto apps = AppsOf(engine, d, "Any2All");
    if (apps.empty()) break;
    d = *engine.Apply(d, apps[0]);
  }
  auto multi = AppsOf(engine, d, "Multi", -1);
  if (!multi.empty()) {
    DiffTree next = *engine.Apply(d, multi[0]);
    EXPECT_TRUE(ExpressesAll(next, queries));
    // The adder generalizes: more conjunct combinations become expressible.
    EXPECT_GE(CountExpressible(next, 3), CountExpressible(d, 3));
  }
}

TEST(Rules, All2AnyIsLanguageExactInverse) {
  RuleEngine engine;
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  DiffTree factored = *engine.Apply(d, AppsOf(engine, d, "Any2All", 0)[0]);
  double before = CountExpressible(factored);
  auto apps = AppsOf(engine, factored, "All2Any");
  ASSERT_FALSE(apps.empty());
  DiffTree split = *engine.Apply(factored, apps[0]);
  EXPECT_EQ(split.kind, DKind::kAny);
  EXPECT_DOUBLE_EQ(CountExpressible(split), before);
  EXPECT_TRUE(ExpressesAll(split, queries));
}

TEST(Rules, ApplyRejectsOversizedResults) {
  RuleSetOptions opts;
  opts.max_tree_nodes = 10;  // absurdly small
  RuleEngine engine(opts);
  DiffTree d = *BuildInitialTree({Q("select a from t where x = 1 and y = 2"),
                                  Q("select b from t where x = 3 and y = 4")});
  for (const auto& app : engine.EnumerateApplications(d)) {
    auto r = engine.Apply(d, app);
    if (r.ok()) {
      EXPECT_LE(r->NodeCount(), 10u);
    }
  }
}

TEST(Rules, DescribeIsHumanReadable) {
  RuleEngine engine;
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  auto apps = engine.EnumerateApplications(d);
  ASSERT_FALSE(apps.empty());
  std::string desc = engine.Describe(d, apps[0]);
  EXPECT_NE(desc.find("@"), std::string::npos);
}

TEST(Rules, IsForwardClassification) {
  RuleEngine engine;
  DiffTree d = *BuildInitialTree({Q("select a from t"), Q("select b from t")});
  for (const auto& app : engine.EnumerateApplications(d)) {
    if (engine.RuleName(app) == "All2Any") {
      EXPECT_FALSE(engine.IsForward(app));
    }
    if (engine.RuleName(app) == "Any2All") {
      EXPECT_TRUE(engine.IsForward(app));
    }
  }
}

// ---------------------------------------------------------------------------
// The load-bearing property: EVERY rule application preserves expressibility
// of the input queries (paper: rewrites factor redundancy, never lose logs).
// ---------------------------------------------------------------------------

class RulePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RulePropertyTest, RandomRuleSequencesPreserveExpressibility) {
  RuleEngine engine;
  Rng rng(GetParam());
  LogSpec spec;
  spec.num_queries = 4 + GetParam() % 4;
  spec.num_tables = 2;
  spec.num_projection_variants = 2;
  spec.num_predicates = 2;
  spec.vary_predicate_count = GetParam() % 2 == 0;
  spec.optional_where = GetParam() % 3 == 0;
  spec.seed = GetParam();
  auto queries = *ParseQueries(GenerateLog(spec));
  DiffTree tree = *BuildInitialTree(queries);
  ASSERT_TRUE(ExpressesAll(tree, queries));

  for (int step = 0; step < 25; ++step) {
    auto apps = engine.EnumerateApplications(tree);
    if (apps.empty()) break;
    const RuleApplication& app = apps[rng.UniformIndex(apps.size())];
    auto next = engine.Apply(tree, app);
    if (!next.ok()) continue;  // size guard may fire; state unchanged
    std::string why;
    ASSERT_TRUE(IsWellFormed(*next, &why))
        << why << " after " << engine.Describe(tree, app);
    ASSERT_TRUE(ExpressesAll(*next, queries))
        << "lost a query after " << engine.Describe(tree, app) << "\n"
        << next->ToString();
    tree = std::move(next).MoveValueUnsafe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(RuleProperty, SdssLogSurvivesLongForwardChains) {
  RuleEngine engine;
  auto queries = *ParseQueries(SdssListing1());
  DiffTree tree = *BuildInitialTree(queries);
  for (int step = 0; step < 40; ++step) {
    auto apps = engine.EnumerateApplications(tree);
    bool advanced = false;
    for (const auto& app : apps) {
      if (!engine.IsForward(app)) continue;
      auto next = engine.Apply(tree, app);
      if (!next.ok()) continue;
      tree = std::move(next).MoveValueUnsafe();
      advanced = true;
      break;
    }
    if (!advanced) break;
    ASSERT_TRUE(ExpressesAll(tree, queries)) << "lost a query at step " << step;
  }
}

// Apply shares the input's blocks with its result; it must never write
// through them.
TEST(Rules, ApplyNeverMutatesItsInput) {
  const RuleEngine engine;
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    std::vector<DiffTree> states = RolloutStates(queries, 21, 24, 0.8);
    for (DiffTree& s : RolloutStates(queries, 23, 24, 0.0)) states.push_back(std::move(s));
    size_t applied = 0;
    for (size_t i = 0; i < states.size(); ++i) {
      const DiffTree& s = states[i];
      const std::string where = std::string(workload) + " state " + std::to_string(i);
      const std::string sexpr = s.ToSExpr();
      const uint64_t hash = s.Hash();
      const uint64_t canonical = s.CanonicalHash();
      const DiffTree deep = DeepCopy(s);
      for (const RuleApplication& app : engine.EnumerateApplications(s)) {
        auto got = engine.Apply(s, app);
        auto want = engine.Apply(deep, app);
        ASSERT_EQ(got.ok(), want.ok()) << where << " " << engine.Describe(s, app);
        if (!got.ok()) continue;
        ++applied;
        // Against a result that holds no cache at all.
        const DiffTree plain = DeepCopy(*want);
        EXPECT_TRUE(*got == plain) << where << " " << engine.Describe(s, app);
        EXPECT_EQ(got->Hash(), plain.Hash()) << where;
        EXPECT_EQ(got->CanonicalHash(), plain.CanonicalHash()) << where;
        EXPECT_EQ(got->NodeCount(), plain.NodeCount()) << where;
        EXPECT_EQ(got->ChoiceCount(), plain.ChoiceCount()) << where;
        // Normal form, checked by a Normalize that walks every node.
        EXPECT_EQ(Normalized(plain).ToSExpr(), plain.ToSExpr()) << where;
      }
      EXPECT_EQ(s.ToSExpr(), sexpr) << where;
      EXPECT_EQ(s.Hash(), hash) << where;
      EXPECT_EQ(s.CanonicalHash(), canonical) << where;
      EXPECT_TRUE(s == deep) << where;
    }
    EXPECT_GT(applied, 0u) << workload;
  }
}

// ---------------------------------------------------------------------------
// Rollout steps count the applications and descend to the one they draw
// instead of materializing the list; both must agree with the list.

std::string AppKey(const RuleApplication& app) {
  std::string key = std::to_string(app.rule_index) + ":" + std::to_string(app.param) + ":" +
                    std::to_string(app.param2) + "@";
  for (int i : app.path) key += "/" + std::to_string(i);
  return key;
}

std::vector<RuleApplication> ForwardOf(const RuleEngine& engine,
                                       const std::vector<RuleApplication>& apps) {
  std::vector<RuleApplication> forward;
  for (const RuleApplication& a : apps) {
    if (engine.IsForward(a)) forward.push_back(a);
  }
  return forward;
}

/// Counts and every descent of `t`, with `apps` the enumerated list.
void ExpectCountAndDescentsMatch(const RuleEngine& engine, const DiffTree& t,
                                 const std::vector<RuleApplication>& apps,
                                 const std::string& where) {
  const std::vector<RuleApplication> forward = ForwardOf(engine, apps);
  const ApplicationCount count = engine.CountApplications(t);
  ASSERT_EQ(count.total, apps.size()) << where;
  ASSERT_EQ(count.forward, forward.size()) << where;
  for (size_t k = 0; k < apps.size(); ++k) {
    EXPECT_EQ(AppKey(engine.ApplicationAt(t, k, false)), AppKey(apps[k])) << where << " k=" << k;
  }
  for (size_t k = 0; k < forward.size(); ++k) {
    EXPECT_EQ(AppKey(engine.ApplicationAt(t, k, true)), AppKey(forward[k]))
        << where << " forward k=" << k;
  }
}

std::vector<std::pair<std::string, DiffTree>> CountedStates() {
  std::vector<std::pair<std::string, DiffTree>> out;
  for (const char* workload : {"sdss", "flights"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    for (double bias : {0.5, 0.8}) {
      const std::vector<DiffTree> states = RolloutStates(queries, 41, 30, bias);
      for (size_t i = 0; i < states.size(); ++i) {
        out.emplace_back(std::string(workload) + " bias " + std::to_string(bias) + " state " +
                             std::to_string(i),
                         states[i]);
      }
    }
  }
  return out;
}

TEST(RuleCounts, CountsAndDescentsMatchEnumeration) {
  const RuleEngine engine;
  size_t nonempty = 0;
  for (const auto& [where, s] : CountedStates()) {
    const std::vector<RuleApplication> apps = engine.EnumerateApplications(s);
    nonempty += apps.empty() ? 0 : 1;
    // Twice on the state (the first call fills its blocks' counts, the
    // second reads them), then on a copy that holds no cache at all.
    ExpectCountAndDescentsMatch(engine, s, apps, where + " cold-fill");
    ExpectCountAndDescentsMatch(engine, s, apps, where + " warm");
    ExpectCountAndDescentsMatch(engine, DeepCopy(s), apps, where + " deep copy");
  }
  EXPECT_GT(nonempty, 100u);
}

// A rollout step draws among the survivors of its failed picks and maps the
// draw past them; it must pick what erasing them from the list would.
TEST(RuleCounts, ErasedPicksRemapLikeVectorErase) {
  const RuleEngine engine;
  size_t checked = 0;
  uint64_t seed = 0;
  for (const auto& [where, s] : CountedStates()) {
    const std::vector<RuleApplication> apps = engine.EnumerateApplications(s);
    for (bool forward_only : {false, true}) {
      std::vector<RuleApplication> pool = forward_only ? ForwardOf(engine, apps) : apps;
      const size_t n = pool.size();
      Rng listed(++seed);
      Rng counted(seed);
      ErasedPicks failed;
      for (int attempt = 0; attempt < 4 && !pool.empty(); ++attempt) {
        const size_t pick = listed.UniformIndex(pool.size());
        const size_t index = failed.Remap(counted.UniformIndex(n - failed.size));
        ASSERT_LT(index, n);
        EXPECT_EQ(AppKey(engine.ApplicationAt(s, index, forward_only)), AppKey(pool[pick]))
            << where << " attempt " << attempt;
        ++checked;
        if (failed.size == ErasedPicks::kMax) break;
        pool.erase(pool.begin() + static_cast<long>(pick));
        failed.Erase(index);
      }
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(RuleCounts, ApplyMarksTheBlocksItSealsNormal) {
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  // Seal marks only what it is told is normal. The initial state is in
  // normal form, so sealed as SearchRun::Start seals it, every list is
  // marked; an ANY over a one-child Seq is not, and its new lists stay
  // unmarked.
  const DiffTree initial = *BuildInitialTree(queries);
  ASSERT_EQ(Normalized(initial), initial);
  SealCheckingNormal(initial);
  EXPECT_EQ(UnmarkedLists(initial), 0u);
  const DiffTree wrapped = DiffTree::Any({DiffTree::Seq({initial}), initial});
  ASSERT_NE(Normalized(wrapped), wrapped);
  SealCheckingNormal(wrapped);
  EXPECT_EQ(UnmarkedLists(wrapped), 2u);
  EXPECT_FALSE(wrapped.children.KnownNormal());
  // RolloutStates seals nothing itself, so every block of an Apply result
  // was sealed by an Apply, right after its Normalize.
  size_t applied = 0;
  for (const DiffTree& s : RolloutStates(queries, 9, 60, 0.8)) {
    if (!s.children.KnownNormal()) continue;  // a restart at the initial state
    ++applied;
    EXPECT_EQ(UnmarkedLists(s), 0u);
    EXPECT_EQ(Normalized(DeepCopy(s)), s);  // a normalization without the marks
  }
  EXPECT_GT(applied, 40u);
}

// Counted (sealed) blocks never change in place: non-const access copies
// them, so an edit of a copy leaves the original's caches valid.
TEST(RuleCounts, EditingACopyOfASealedStateLeavesItsCountsAlone) {
  const RuleEngine engine;
  auto facts = [&](const DiffTree& t) {
    const ApplicationCount c = engine.CountApplications(t);
    return std::vector<uint64_t>{t.Hash(), t.CanonicalHash(), t.NodeCount(), c.total, c.forward};
  };
  size_t edited = 0;
  for (const auto& [where, s] : CountedStates()) {
    const std::vector<uint64_t> before = facts(s);
    ASSERT_EQ(before, facts(DeepCopy(s))) << where;
    const std::vector<RuleApplication> apps = engine.EnumerateApplications(s);
    if (apps.empty()) continue;
    const TreePath& deep = apps.back().path;
    const std::vector<std::function<void(DiffTree*)>> edits = {
        [&](DiffTree* t) {
          DiffTree* n = MutableNodeAt(t, deep);
          DiffTree twin = *n;
          *n = DiffTree::Any({twin, twin});  // a Merge site, at least
        },
        [&](DiffTree* t) { MutableNodeAt(t, deep)->children.Mutable().clear(); },
        [&](DiffTree* t) { t->children.push_back(DiffTree::Empty()); },
    };
    for (size_t e = 0; e < edits.size(); ++e) {
      DiffTree copy = s;
      edits[e](&copy);
      ++edited;
      EXPECT_EQ(facts(s), before) << where << " edit " << e;
      EXPECT_EQ(facts(copy), facts(DeepCopy(copy))) << where << " edit " << e;
      ExpectCountAndDescentsMatch(engine, copy, engine.EnumerateApplications(copy),
                                  where + " edited copy");
    }
  }
  EXPECT_GT(edited, 100u);

  // A private block caches only once sealed, and an edit then copies it.
  DiffTree mine = DeepCopy(CountedStates().back().second);
  EXPECT_EQ(mine.children.facts(), nullptr);
  SealCheckingNormal(mine);
  ASSERT_NE(mine.children.facts(), nullptr);
  const DiffTree* sealed_kids = std::as_const(mine).children.begin();
  const std::vector<uint64_t> sealed_facts = facts(mine);
  mine.children[0].value = "edited";
  EXPECT_NE(std::as_const(mine).children.begin(), sealed_kids);
  EXPECT_EQ(mine.children.facts(), nullptr);  // the copy is private again
  EXPECT_EQ(facts(mine), facts(DeepCopy(mine)));
  EXPECT_NE(facts(mine)[0], sealed_facts[0]);

  // An open block is never counted, shared or not. A sealed one is, and an
  // edit of a copy carries its counts but the written child's, which the
  // copy's Seal and next count fill.
  auto count = [&](const DiffTree& kid) { return engine.CountApplications(kid); };
  DiffTree own = DeepCopy(CountedStates().back().second);
  {
    const DiffTree other = own;
    ASSERT_EQ(facts(own), facts(DeepCopy(own)));
    EXPECT_EQ(own.children.CountedFacts(count), nullptr);
  }
  SealCheckingNormal(own);
  ASSERT_NE(own.children.CountedFacts(count), nullptr);
  const DiffTree counted = own;
  const DiffTree twin = std::as_const(own).children[0];
  own.children[0] = DiffTree::Any({twin, twin});
  EXPECT_EQ(own.children.CountedFacts(count), nullptr);  // open again
  EXPECT_EQ(facts(own), facts(DeepCopy(own)));
  SealCheckingNormal(own);
  EXPECT_EQ(facts(own), facts(DeepCopy(own)));
  EXPECT_EQ(facts(counted), facts(DeepCopy(counted)));
}

// Trees of concurrent searches share sealed blocks, so threads race to fill
// the same count caches.
TEST(RuleCounts, ConcurrentCountFills) {
  const RuleEngine engine;
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  std::vector<DiffTree> states = RolloutStates(queries, 43, 24, 0.8);
  for (DiffTree& s : RolloutStates(queries, 47, 24, 0.5)) states.push_back(std::move(s));
  auto summarize = [&](const DiffTree& t) {
    const ApplicationCount c = engine.CountApplications(t);
    std::vector<std::string> out = {std::to_string(c.total) + "/" + std::to_string(c.forward)};
    for (size_t k = 0; k < c.total; ++k) out.push_back(AppKey(engine.ApplicationAt(t, k, false)));
    for (size_t k = 0; k < c.forward; ++k) out.push_back(AppKey(engine.ApplicationAt(t, k, true)));
    return out;
  };
  std::vector<std::vector<std::string>> serial;
  for (const DiffTree& s : states) serial.push_back(summarize(DeepCopy(s)));

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<std::string>>> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const DiffTree& s : states) parallel[static_cast<size_t>(t)].push_back(summarize(s));
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(parallel[static_cast<size_t>(t)], serial) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Apply's path copies carry the facts and counts of the siblings they do
// not write; their Seal recomputes only the written children's. Either way
// every entry must be what a seal from scratch computes.

/// The facts and counts of `got`'s children against those of `fresh`'s.
void ExpectChildFactsAsFresh(const RuleEngine& engine, const DiffTree& got,
                             const DiffTree& fresh, const std::string& where) {
  const size_t n = got.children.size();
  ASSERT_EQ(n, fresh.children.size()) << where;
  auto count = [&](const DiffTree& kid) { return engine.CountApplications(kid); };
  const ChildFacts* g = got.children.CountedFacts(count);
  const ChildFacts* f = fresh.children.CountedFacts(count);
  ASSERT_NE(g, nullptr) << where;
  ASSERT_NE(f, nullptr) << where;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(g[i].hash, f[i].hash) << where << " child " << i;
    EXPECT_EQ(g[i].canonical_hash, f[i].canonical_hash) << where << " child " << i;
    EXPECT_EQ(g[i].nodes, f[i].nodes) << where << " child " << i;
    EXPECT_EQ(g[i].choices, f[i].choices) << where << " child " << i;
    EXPECT_EQ(g[i].apps.total, f[i].apps.total) << where << " child " << i;
    EXPECT_EQ(g[i].apps.forward, f[i].apps.forward) << where << " child " << i;
  }
}

/// ExpectChildFactsAsFresh at every block of `got`; returns the blocks seen.
size_t ExpectFactsAsFresh(const RuleEngine& engine, const DiffTree& got, const DiffTree& fresh,
                          const std::string& where) {
  if (got.children.empty() || ::testing::Test::HasFailure()) return 0;
  ExpectChildFactsAsFresh(engine, got, fresh, where);
  size_t blocks = 1;
  for (size_t i = 0; i < got.children.size() && i < fresh.children.size(); ++i) {
    blocks += ExpectFactsAsFresh(engine, got.children[i], fresh.children[i], where);
  }
  return blocks;
}

TEST(RuleCounts, PathCopiesCarryTheFactsOfUntouchedSiblings) {
  const RuleEngine engine;
  size_t blocks = 0;
  size_t applied = 0;
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    DiffTree initial = *BuildInitialTree(queries);
    SealCheckingNormal(initial);
    // Forward-biased walks and uniform ones, whose picks include inverse
    // rewrites; restarts every 14 steps, as RolloutStates does.
    for (double bias : {0.8, 0.0}) {
      Rng rng(bias > 0 ? 61 : 67);
      DiffTree s = initial;
      for (int step = 0; step < 60; ++step) {
        // Every fact and count of `s` is filled first, so the path copies
        // of Apply have them to carry.
        const ApplicationCount c = engine.CountApplications(s);
        if (c.total == 0 || step % 14 == 13) {
          s = initial;
          continue;
        }
        const bool forward = c.forward > 0 && rng.Bernoulli(bias);
        const RuleApplication app =
            engine.ApplicationAt(s, rng.UniformIndex(forward ? c.forward : c.total), forward);
        auto next = engine.Apply(s, app);
        if (!next.ok()) continue;
        ++applied;
        DiffTree fresh = DeepCopy(*next);
        Seal(fresh, /*normal=*/true);  // a copy of an Apply result
        const std::string where = std::string(workload) + " bias " + std::to_string(bias) +
                                  " step " + std::to_string(step) + " " +
                                  engine.Describe(s, app);
        blocks += ExpectFactsAsFresh(engine, *next, fresh, where);
        ASSERT_FALSE(HasFailure()) << where;
        s = std::move(next).MoveValueUnsafe();
      }
    }
  }
  EXPECT_GT(applied, 200u);
  EXPECT_GT(blocks, 10000u);

  // A path copy of a sealed, counted state written through operator[] at two
  // children: its Seal recomputes those two entries and keeps the others'.
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  size_t copied = 0;
  for (const DiffTree& state : RolloutStates(queries, 71, 12, 0.8)) {
    const size_t n = state.children.size();
    if (n < 2) continue;
    SealCheckingNormal(state);
    engine.CountApplications(state);
    DiffTree copy = state;
    for (size_t i : {size_t{0}, n - 1}) {
      const DiffTree twin = std::as_const(copy).children[i];
      copy.children[i] = DiffTree::Any({twin, twin});
    }
    SealCheckingNormal(copy);
    DiffTree fresh = DeepCopy(copy);
    SealCheckingNormal(fresh);
    ExpectFactsAsFresh(engine, copy, fresh, "path copy");
    ++copied;
  }
  EXPECT_GT(copied, 0u);
}

}  // namespace
}  // namespace ifgen
