#include <gtest/gtest.h>

#include "difftree/builder.h"
#include "difftree/enumerate.h"
#include "difftree/match.h"
#include "difftree/normalize.h"
#include "rollout_states.h"
#include "rules/rule.h"
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

TEST(Rules, NoopWrapDisabledByDefault) {
  RuleEngine engine;
  DiffTree d = DiffTree::FromAst(Q("select a from t"));
  EXPECT_TRUE(AppsOf(engine, d, "Noop", 1).empty());
  RuleSetOptions opts;
  opts.enable_noop_wrap = true;
  RuleEngine engine2(opts);
  EXPECT_FALSE(AppsOf(engine2, d, "Noop", 1).empty());
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

}  // namespace
}  // namespace ifgen
