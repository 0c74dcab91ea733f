#include <gtest/gtest.h>

#include <cmath>

#include "core/interface_generator.h"
#include "difftree/builder.h"
#include "search/mcts.h"
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

EvalOptions SmallEvalOptions() {
  EvalOptions e;
  e.screen = {80, 24};
  return e;
}

TEST(ParallelMcts, SerialSearcherIsItselfDeterministic) {
  auto queries = SmallLog();
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator eval_a(SmallEvalOptions(), queries);
  MctsSearcher a(&rules, &eval_a, FastOptions(25));
  StateEvaluator eval_b(SmallEvalOptions(), queries);
  MctsSearcher b(&rules, &eval_b, FastOptions(25));
  auto ra = a.Run(initial);
  auto rb = b.Run(initial);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->best_cost, rb->best_cost);
  EXPECT_EQ(ra->best_tree, rb->best_tree);
}

TEST(ParallelMcts, RootParallelImprovesOverInitialState) {
  auto queries = SmallLog();
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator eval(SmallEvalOptions(), queries);
  ParallelOptions popts;
  popts.num_threads = 3;
  MctsSearcher searcher(&rules, &eval, FastOptions(30), popts);
  auto r = searcher.Run(initial);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->best_cost, r->stats.initial_cost);
  EXPECT_EQ(r->stats.trees, 3u);
  // 30 iterations split over 3 trees.
  EXPECT_EQ(r->stats.iterations, 30u);

  // The merged root-action ranking is populated and sorted by
  // visit-weighted mean reward.
  ASSERT_FALSE(r->root_actions.empty());
  for (size_t i = 1; i < r->root_actions.size(); ++i) {
    EXPECT_GE(r->root_actions[i - 1].MeanReward(), r->root_actions[i].MeanReward());
  }
}

TEST(ParallelMcts, SharedTranspositionTableDeduplicatesAcrossTrees) {
  auto queries = SmallLog();
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator eval(SmallEvalOptions(), queries);
  ParallelOptions popts;
  popts.num_threads = 4;
  MctsSearcher searcher(&rules, &eval, FastOptions(40), popts);
  auto r = searcher.Run(initial);
  ASSERT_TRUE(r.ok());
  // Independent trees expanding the same small space must collide: the
  // shared table turns the other trees' states into transposition hits.
  EXPECT_GT(r->stats.transposition_hits, 0u);
}

TEST(ParallelMcts, MakeSearcherSelectsParallelImplementation) {
  auto queries = SmallLog();
  RuleEngine rules;
  StateEvaluator eval(SmallEvalOptions(), queries);
  ParallelOptions four_threads;
  four_threads.num_threads = 4;
  auto parallel =
      MakeSearcher(Algorithm::kMcts, &rules, &eval, FastOptions(5), four_threads);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(parallel->name(), "mcts-parallel");

  auto serial = MakeSearcher(Algorithm::kMcts, &rules, &eval, FastOptions(5));
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(serial->name(), "mcts");

  // Non-MCTS algorithms never go parallel.
  auto greedy =
      MakeSearcher(Algorithm::kGreedy, &rules, &eval, FastOptions(5), four_threads);
  ASSERT_NE(greedy, nullptr);
  EXPECT_EQ(greedy->name(), "greedy");
}

TEST(ParallelMcts, GenerateInterfaceWiresNumThreadsThrough) {
  std::vector<std::string> sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
  };
  GeneratorOptions options;
  options.screen = {80, 24};
  options.search.time_budget_ms = 0;
  options.search.max_iterations = 8;
  options.parallel.num_threads = 2;
  auto r = GenerateInterface(sqls, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(std::isfinite(r->cost.total()));
  EXPECT_EQ(r->stats.trees, 2u);
}

}  // namespace
}  // namespace ifgen
