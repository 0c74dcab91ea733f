#include <gtest/gtest.h>

#include <cmath>

#include "core/interface_generator.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "search/mcts.h"
#include "search/priors.h"
#include "sql/parser.h"

namespace ifgen {
namespace {

std::vector<Ast> SmallLog() {
  return *ParseQueries(std::vector<std::string>{
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
  });
}

SearchOptions FastOptions(size_t iterations) {
  SearchOptions o;
  o.time_budget_ms = 0;  // iteration-capped: deterministic
  o.max_iterations = iterations;
  o.seed = 17;
  return o;
}

int RuleIndexByName(const RuleEngine& rules, std::string_view name) {
  for (size_t r = 0; r < rules.num_rules(); ++r) {
    if (rules.rule(r).name() == name) return static_cast<int>(r);
  }
  return -1;
}

TEST(ActionPriors, NormalizationSumsToOne) {
  auto queries = SmallLog();
  RuleEngine rules;
  ActionPriorModel model(rules, queries, PriorOptions{});
  DiffTree state = *BuildInitialTree(queries);

  // The initial state and every single-application successor: priors must
  // be a proper distribution at each of them.
  std::vector<DiffTree> states = {state};
  for (const RuleApplication& app : rules.EnumerateApplications(state)) {
    auto next = rules.Apply(state, app);
    if (next.ok()) states.push_back(*std::move(next));
    if (states.size() >= 20) break;
  }
  for (const DiffTree& s : states) {
    auto apps = rules.EnumerateApplications(s);
    if (apps.empty()) continue;
    std::vector<double> priors = model.Evaluate(s, apps);
    ASSERT_EQ(priors.size(), apps.size());
    double sum = 0.0;
    for (double p : priors) {
      EXPECT_GT(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ActionPriors, EmptyApplicationsYieldEmptyPriors) {
  auto queries = SmallLog();
  RuleEngine rules;
  ActionPriorModel model(rules, queries, PriorOptions{});
  EXPECT_TRUE(model.Evaluate(*BuildInitialTree(queries), {}).empty());
}

TEST(ActionPriors, ForwardFactoringRulesOutweighInverses) {
  auto queries = SmallLog();
  RuleEngine rules;
  ActionPriorModel model(rules, queries, PriorOptions{});
  double merge = model.RuleWeight(RuleIndexByName(rules, "Merge"));
  double lift = model.RuleWeight(RuleIndexByName(rules, "Lift"));
  double all2any = model.RuleWeight(RuleIndexByName(rules, "All2Any"));
  double noop = model.RuleWeight(RuleIndexByName(rules, "Noop"));
  EXPECT_GT(merge, all2any);
  EXPECT_GT(merge, noop);
  EXPECT_GT(lift, all2any);
}

TEST(ActionPriors, LabelFrequencyTracksTheLog) {
  auto queries = *ParseQueries(std::vector<std::string>{
      "select a from t", "select a from u", "select b from t"});
  RuleEngine rules;
  ActionPriorModel model(rules, queries, PriorOptions{});
  EXPECT_EQ(model.observations(), 3u);
  // "a" appears in 2 of 3 queries, "b" in 1; "t" is the most frequent label.
  EXPECT_DOUBLE_EQ(model.LabelFrequency(Symbol::kTable, "t"), 1.0);
  double fa = model.LabelFrequency(Symbol::kColExpr, "a");
  double fb = model.LabelFrequency(Symbol::kColExpr, "b");
  EXPECT_GT(fa, fb);
  EXPECT_GT(fb, 0.0);
  EXPECT_DOUBLE_EQ(model.LabelFrequency(Symbol::kColExpr, "never-seen"), 0.0);
}

TEST(ProgressiveWidening, ScheduleIsMonotoneAndStartsSmall) {
  size_t prev = 0;
  for (size_t v = 0; v <= 2000; ++v) {
    size_t limit = ProgressiveWideningLimit(v);
    EXPECT_GE(limit, 1u);
    EXPECT_GE(limit, prev) << "not monotone at visits=" << v;
    prev = limit;
  }
  // The schedule must actually widen: far more children are allowed after
  // many visits than at first selection, but never all at once.
  EXPECT_LT(ProgressiveWideningLimit(0), 8u);
  EXPECT_GT(ProgressiveWideningLimit(1000),
            4 * ProgressiveWideningLimit(0));
}

TEST(PriorGuidedMcts, ImprovesAndIsDeterministic) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  auto run = [&]() {
    StateEvaluator eval(eopts, queries);
    SearchOptions o = FastOptions(30);
    o.priors.use_priors = true;
    o.priors.progressive_widening = true;
    MctsSearcher mcts(&rules, &eval, o);
    return *mcts.Run(*BuildInitialTree(queries));
  };
  SearchResult a = run();
  SearchResult b = run();
  EXPECT_LT(a.best_cost, a.stats.initial_cost);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_tree, b.best_tree);
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded);
}

TEST(PriorGuidedMcts, UniformAblationStillImproves) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  SearchOptions o = FastOptions(30);
  o.priors.use_priors = false;
  o.priors.progressive_widening = false;
  MctsSearcher mcts(&rules, &eval, o);
  auto r = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->best_cost, r->stats.initial_cost);
}

TEST(PriorGuidedMcts, SharedModelAcrossRootParallelTrees) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  SearchOptions o = FastOptions(24);
  o.priors.use_priors = true;
  ParallelOptions popts;
  popts.num_threads = 3;
  MctsSearcher searcher(&rules, &eval, o, popts);
  auto r = searcher.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->best_cost, r->stats.initial_cost);
  EXPECT_EQ(r->stats.trees, 3u);
}

/// The delta-cost contract: with the caches on, every sampled cost is
/// bit-identical to a full re-evaluation — across the initial state and
/// every state one rule application away (which collectively exercises
/// every rule type applicable to the log's difftree).
TEST(DeltaCost, BitIdenticalToFullReevaluationAcrossAllRules) {
  auto queries = SmallLog();
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);

  std::vector<DiffTree> states = {initial};
  for (const RuleApplication& app : rules.EnumerateApplications(initial)) {
    auto next = rules.Apply(initial, app);
    if (next.ok()) states.push_back(*std::move(next));
  }
  // Two-step states: rewrites whose parent already populated the caches —
  // the case where delta evaluation actually reuses subtree terms.
  const DiffTree one_step = states.size() > 1 ? states[1] : initial;
  for (const RuleApplication& app : rules.EnumerateApplications(one_step)) {
    auto next = rules.Apply(one_step, app);
    if (next.ok()) states.push_back(*std::move(next));
    if (states.size() >= 120) break;
  }

  EvalOptions delta_on;
  delta_on.screen = {80, 24};
  delta_on.delta_eval = true;
  delta_on.cache_enabled = false;  // isolate the delta layer from the state memo
  EvalOptions delta_off = delta_on;
  delta_off.delta_eval = false;
  StateEvaluator with_delta(delta_on, queries);
  StateEvaluator full(delta_off, queries);

  for (size_t i = 0; i < states.size(); ++i) {
    Rng rng_a(1000 + i);
    Rng rng_b(1000 + i);
    double a = with_delta.SampleCost(states[i], &rng_a);
    double b = full.SampleCost(states[i], &rng_b);
    EXPECT_EQ(a, b) << "state " << i << " diverged";  // bit-identical
  }

  // The ablation's point: same costs, far fewer subtree recomputes.
  EXPECT_EQ(full.subtree_cache_hits(), 0u);
  EXPECT_GT(with_delta.subtree_cache_hits(), 0u);
  EXPECT_LT(with_delta.subtree_recomputes(), full.subtree_recomputes());
}

TEST(DeltaCost, FindBestMatchesAndReusesThePlan) {
  auto queries = SmallLog();
  DiffTree initial = *BuildInitialTree(queries);

  EvalOptions delta_on;
  delta_on.screen = {80, 24};
  EvalOptions delta_off = delta_on;
  delta_off.delta_eval = false;
  StateEvaluator with_delta(delta_on, queries);
  StateEvaluator full(delta_off, queries);

  Rng rng_s1(7);
  Rng rng_s2(7);
  EXPECT_EQ(with_delta.SampleCost(initial, &rng_s1),
            full.SampleCost(initial, &rng_s2));

  Rng rng_a(7);
  Rng rng_b(7);
  auto a = with_delta.FindBest(initial, &rng_a);
  auto b = full.FindBest(initial, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cost.total(), b->cost.total());
  // SampleCost computed the plan; FindBest on the same state reuses it.
  EXPECT_GT(with_delta.plan_cache_hits(), 0u);
  EXPECT_EQ(full.plan_cache_hits(), 0u);
}

}  // namespace
}  // namespace ifgen
