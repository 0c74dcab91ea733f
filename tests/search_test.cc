#include <gtest/gtest.h>

#include "core/interface_generator.h"
#include "difftree/builder.h"
#include "difftree/match.h"
#include "difftree/normalize.h"
#include "rollout_states.h"
#include "search/baselines.h"
#include "search/mcts.h"
#include "sql/parser.h"
#include "workload/loader.h"
#include "workload/sdss.h"

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

TEST(Mcts, ImprovesOverInitialState) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(40));
  DiffTree initial = *BuildInitialTree(queries);
  auto r = mcts.Run(initial);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->best_cost, r->stats.initial_cost);
  EXPECT_TRUE(ExpressesAll(r->best_tree, queries));
}

TEST(Mcts, DeterministicGivenSeed) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  auto run = [&]() {
    StateEvaluator eval(eopts, queries);
    MctsSearcher mcts(&rules, &eval, FastOptions(25));
    return *mcts.Run(*BuildInitialTree(queries));
  };
  SearchResult a = run();
  SearchResult b = run();
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best_tree, b.best_tree);
  EXPECT_EQ(a.stats.states_expanded, b.stats.states_expanded);
}

TEST(Mcts, TracksAnytimeTrace) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(40));
  auto r = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->stats.trace.empty());
  // Trace costs are strictly decreasing.
  for (size_t i = 1; i < r->stats.trace.size(); ++i) {
    EXPECT_LT(r->stats.trace[i].cost, r->stats.trace[i - 1].cost);
  }
}

TEST(Mcts, RecordsFanoutStats) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(20));
  auto r = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.fanout_samples, 0u);
  EXPECT_GT(r->stats.fanout_max, 0u);
  EXPECT_GT(r->stats.MeanFanout(), 0.0);
}

// The search seals its initial state marked normal when it is in normal
// form, so the first rewrites' Normalize skips its blocks; one that is not
// stays unmarked, so Normalize still walks it.
TEST(Mcts, StartSealsANormalInitialStateAsKnownNormal) {
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    const DiffTree initial = *BuildInitialTree(queries);
    EXPECT_GT(UnmarkedLists(initial), 0u) << workload;
    StateEvaluator eval(eopts, queries);
    MctsSearcher mcts(&rules, &eval, FastOptions(3));
    ASSERT_TRUE(mcts.Run(initial).ok()) << workload;
    EXPECT_EQ(UnmarkedLists(initial), 0u) << workload;
  }

  // The first query's Select holds its projection in a Seq, which
  // Normalize splices.
  const std::vector<Ast> queries = SmallLog();
  std::vector<DiffTree> alts;
  for (const Ast& q : queries) alts.push_back(DiffTree::FromAst(q));
  alts[0].children[0] = DiffTree::Seq({std::as_const(alts[0]).children[0]});
  const DiffTree initial = DiffTree::Any(std::move(alts));
  ASSERT_EQ(Normalized(initial), *BuildInitialTree(queries));
  StateEvaluator eval(eopts, queries);
  MctsSearcher mcts(&rules, &eval, FastOptions(40));
  auto r = mcts.Run(initial);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(initial.children.KnownNormal());
  EXPECT_FALSE(initial.children[0].children.KnownNormal());
  EXPECT_LT(r->best_cost, r->stats.initial_cost);
  EXPECT_TRUE(ExpressesAll(r->best_tree, queries));
  // Every state past the initial one is in normal form, the Seq spliced.
  EXPECT_EQ(Normalized(DeepCopy(r->best_tree)), r->best_tree);
}

TEST(RandomSearch, AlsoImprovesButTracksBest) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  RandomSearcher random(&rules, &eval, FastOptions(30));
  auto r = random.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->best_cost, r->stats.initial_cost);
  EXPECT_TRUE(ExpressesAll(r->best_tree, queries));
}

TEST(Greedy, NeverReturnsWorseThanInitial) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  GreedySearcher greedy(&rules, &eval, FastOptions(20));
  auto r = greedy.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->best_cost, r->stats.initial_cost);
}

TEST(Beam, ExploresDistinctStates) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  SearchOptions o = FastOptions(6);
  o.beam_width = 4;
  BeamSearcher beam(&rules, &eval, o);
  auto r = beam.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.states_expanded, 4u);
  EXPECT_LE(r->best_cost, r->stats.initial_cost);
}

TEST(Exhaustive, FindsOptimumOnTinyInput) {
  auto queries = *ParseQueries(
      std::vector<std::string>{"select a from t", "select b from t"});
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  eopts.k_assignments = 12;
  StateEvaluator eval(eopts, queries);
  SearchOptions o;
  o.time_budget_ms = 0;
  o.exhaustive_max_depth = 5;
  o.exhaustive_max_states = 3000;
  ExhaustiveSearcher ex(&rules, &eval, o);
  auto r = ex.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ex.complete());

  // MCTS with the same evaluator should reach the same optimum on this
  // trivially small space.
  StateEvaluator eval2(eopts, queries);
  MctsSearcher mcts(&rules, &eval2, FastOptions(60));
  auto m = mcts.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m->best_cost, r->best_cost, 1e-9);
}

TEST(Exhaustive, TranspositionsDetected) {
  auto queries = SmallLog();
  RuleEngine rules;
  EvalOptions eopts;
  eopts.screen = {80, 24};
  StateEvaluator eval(eopts, queries);
  SearchOptions o;
  o.time_budget_ms = 0;
  o.exhaustive_max_depth = 3;
  o.exhaustive_max_states = 500;
  ExhaustiveSearcher ex(&rules, &eval, o);
  auto r = ex.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  // Rule applications commute often; revisits must be recognized.
  EXPECT_GT(r->stats.transposition_hits, 0u);
}

TEST(Exhaustive, HonoursTheSharedIterationCap) {
  auto queries = *ParseQueries(LoadWorkload("flights", 10)->log);
  RuleEngine rules;
  StateEvaluator eval(EvalOptions{}, queries);
  SearchOptions o = FastOptions(8);
  o.exhaustive_max_states = 300;
  ExhaustiveSearcher ex(&rules, &eval, o);
  auto r = ex.Run(*BuildInitialTree(queries));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.iterations, 8u);
  EXPECT_EQ(r->stats.stop_reason, StopReason::kIterations);
  EXPECT_FALSE(ex.complete());
  EXPECT_LT(ex.visited_states(), o.exhaustive_max_states);
}

TEST(GenerateInterface, EndToEndMcts) {
  GeneratorOptions opt;
  opt.screen = {80, 24};
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 30;
  auto r = GenerateInterface(
      {"select Sales from sales where cty = 'USA'",
       "select Costs from sales where cty = 'EUR'", "select Costs from sales"},
      opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cost.valid);
  EXPECT_GE(r->coverage, 3.0);
  EXPECT_GE(r->widgets.CountInteractive(), 1u);
  // Every input query must be expressible by the output difftree.
  auto queries = *ParseQueries(std::vector<std::string>{
      "select Sales from sales where cty = 'USA'",
      "select Costs from sales where cty = 'EUR'", "select Costs from sales"});
  EXPECT_TRUE(ExpressesAll(r->difftree, queries));
}

TEST(GenerateInterface, AllAlgorithmsRun) {
  GeneratorOptions opt;
  opt.screen = {80, 24};
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 8;
  opt.search.exhaustive_max_states = 200;
  for (Algorithm a :
       {Algorithm::kMcts, Algorithm::kRandom, Algorithm::kGreedy, Algorithm::kBeam,
        Algorithm::kExhaustive, Algorithm::kBottomUp}) {
    opt.algorithm = a;
    auto r = GenerateInterface({"select a from t", "select b from t"}, opt);
    ASSERT_TRUE(r.ok()) << AlgorithmName(a) << ": " << r.status().ToString();
    EXPECT_TRUE(r->cost.valid) << AlgorithmName(a);
  }
}

TEST(GenerateInterface, RejectsEmptyLog) {
  EXPECT_FALSE(GenerateInterface({}, {}).ok());
}

TEST(GenerateInterface, DeltaCostAblationIsBitIdenticalEndToEnd) {
  // The delta-cost ablation guard: forcing full re-evaluation must change
  // nothing about the search (costs are bit-identical, so every decision
  // built on them is too) — only the recompute counters move.
  std::vector<std::string> sqls = {
      "select Sales from sales where cty = 'USA'",
      "select Costs from sales where cty = 'EUR'", "select Costs from sales"};
  GeneratorOptions opt;
  opt.screen = {80, 24};
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 25;
  opt.delta_cost_eval = true;
  auto with_delta = GenerateInterface(sqls, opt);
  opt.delta_cost_eval = false;
  auto full = GenerateInterface(sqls, opt);
  ASSERT_TRUE(with_delta.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(with_delta->cost.total(), full->cost.total());
  EXPECT_EQ(with_delta->difftree, full->difftree);
  EXPECT_EQ(with_delta->cost.m_total, full->cost.m_total);
  EXPECT_EQ(with_delta->cost.u_total, full->cost.u_total);
}

TEST(GenerateInterface, PriorAblationFlagsSelectTheUniformSearch) {
  // Both the prior-guided default and the paper's uniform ablation must
  // produce valid interfaces over the same log (costs may differ — that
  // delta is what bench_ablation measures).
  std::vector<std::string> sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9"};
  for (bool use_priors : {true, false}) {
    GeneratorOptions opt;
    opt.screen = {80, 24};
    opt.search.time_budget_ms = 0;
    opt.search.max_iterations = 20;
    opt.search.priors.use_priors = use_priors;
    opt.search.priors.progressive_widening = use_priors;
    auto r = GenerateInterface(sqls, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->cost.valid);
  }
}

TEST(GenerateInterface, ScreenSensitivity) {
  // The narrow screen must still produce a valid interface, and it must fit.
  GeneratorOptions opt;
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 25;
  opt.screen = {30, 10};
  auto r = GenerateInterface(SdssQueries6To8(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->cost.valid) << r->cost.invalid_reason;
  EXPECT_LE(r->cost.layout_width, 30);
  EXPECT_LE(r->cost.layout_height, 10);
}

}  // namespace
}  // namespace ifgen
