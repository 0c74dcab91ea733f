// Compares the search algorithms (MCTS vs random / greedy / beam /
// bounded-exhaustive) and the Zhang'17 bottom-up baseline on equal budgets,
// across three workloads. The paper's qualitative claims: MCTS finds
// layout-aware interfaces the bottom-up approach cannot, and poor interfaces
// are "easily possible" (random does not reliably find good ones).
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/sdss.h"
#include "workload/synthetic.h"

using namespace ifgen;  // NOLINT

namespace {

void RunWorkload(const char* name, const std::vector<std::string>& sqls,
                 int64_t budget_ms) {
  std::printf("\n-- workload: %s (%zu queries, budget %lld ms per algorithm) --\n",
              name, sqls.size(), static_cast<long long>(budget_ms));
  std::printf("%-12s %10s %8s %8s %10s %10s\n", "algorithm", "cost", "M", "U",
              "widgets", "states");
  double mcts_cost = 0;
  double random_pure_cost = 0;
  double bottomup_cost = 0;
  struct Config {
    Algorithm algo;
    bool pure_random_rollouts;
    const char* tag;
  };
  const Config configs[] = {
      {Algorithm::kMcts, false, "mcts"},
      {Algorithm::kRandom, false, "random"},
      {Algorithm::kRandom, true, "random-pure"},  // the paper's uniform walks
      {Algorithm::kGreedy, false, "greedy"},
      {Algorithm::kBeam, false, "beam"},
      {Algorithm::kExhaustive, false, "exhaustive"},
      {Algorithm::kBottomUp, false, "bottom-up"},
  };
  for (const Config& cfg : configs) {
    GeneratorOptions opt;
    opt.screen = {100, 40};
    opt.algorithm = cfg.algo;
    opt.search.time_budget_ms = budget_ms;
    opt.search.seed = 3;
    if (cfg.pure_random_rollouts) {
      opt.search.rollout_saturate_prob = 0.0;
      opt.search.rollout_forward_bias = 0.5;
      opt.search.rollout_eval_prob = 0.0;
    }
    auto r = GenerateInterface(sqls, opt);
    if (!r.ok()) {
      std::printf("%-12s failed: %s\n", cfg.tag, r.status().ToString().c_str());
      continue;
    }
    std::printf("%-12s %10.2f %8.2f %8.2f %10zu %10zu\n", cfg.tag,
                r->cost.total(), r->cost.m_total, r->cost.u_total,
                r->widgets.CountInteractive(), r->stats.states_expanded);
    if (cfg.algo == Algorithm::kMcts) mcts_cost = r->cost.total();
    if (cfg.pure_random_rollouts) random_pure_cost = r->cost.total();
    if (cfg.algo == Algorithm::kBottomUp) bottomup_cost = r->cost.total();
  }
  std::printf("shape check: mcts <= pure-random (%s), mcts <= bottom-up (%s)\n",
              mcts_cost <= random_pure_cost + 1e-9 ? "yes" : "NO",
              mcts_cost <= bottomup_cost + 1e-9 ? "yes" : "NO");
}

}  // namespace

int main() {
  bench::PrintHeader("Search algorithm comparison (equal budgets)");
  const int64_t budget = bench::BudgetMs(3000);

  RunWorkload("sdss-listing1", SdssListing1(), budget);

  LogSpec value_spec;
  value_spec.num_queries = 8;
  value_spec.num_tables = 2;
  value_spec.num_projection_variants = 2;
  value_spec.num_predicates = 2;
  value_spec.seed = 5;
  RunWorkload("synthetic-values", GenerateLog(value_spec), budget);

  LogSpec multi_spec = value_spec;
  multi_spec.vary_predicate_count = true;
  multi_spec.optional_where = true;
  multi_spec.seed = 6;
  RunWorkload("synthetic-structural", GenerateLog(multi_spec), budget);

  return 0;
}
