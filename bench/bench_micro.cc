// Micro-benchmarks (google-benchmark) for the hot paths the paper's
// "Ongoing Work" section worries about: parsing, rule enumeration and
// application, expressibility matching, transition planning (for a search
// and for a session step), and widget-tree evaluation (plan-cached vs
// recomputed — the incremental-evaluation optimization the paper proposes).
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>

#include "core/interface_generator.h"
#include "core/session.h"
#include "cost/cost_model.h"
#include "cost/delta.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "difftree/match.h"
#include "difftree/normalize.h"
#include "interface/assignment.h"
#include "rules/rule.h"
#include "sql/parser.h"
#include "tests/rollout_states.h"
#include "workload/sdss.h"
#include "workload/synthetic.h"

namespace ifgen {
namespace {

const std::vector<std::string>& SdssLog() {
  static const std::vector<std::string> log = SdssListing1();
  return log;
}

std::vector<Ast> SdssAsts() { return *ParseQueries(SdssLog()); }

/// A partially factored SDSS difftree (root Any2All applied).
DiffTree FactoredSdss(int forward_steps) {
  RuleEngine engine;
  DiffTree tree = *BuildInitialTree(SdssAsts());
  for (int i = 0; i < forward_steps; ++i) {
    bool advanced = false;
    for (const auto& app : engine.EnumerateApplications(tree)) {
      if (!engine.IsForward(app)) continue;
      auto next = engine.Apply(tree, app);
      if (!next.ok()) continue;
      tree = std::move(next).MoveValueUnsafe();
      advanced = true;
      break;
    }
    if (!advanced) break;
  }
  return tree;
}

void BM_ParseQuery(benchmark::State& state) {
  const std::string& sql = SdssLog()[0];
  for (auto _ : state) {
    auto q = ParseQuery(sql);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery);

void BM_BuildInitialTree(benchmark::State& state) {
  auto queries = SdssAsts();
  for (auto _ : state) {
    auto t = BuildInitialTree(queries);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BuildInitialTree);

void BM_EnumerateApplications(benchmark::State& state) {
  RuleEngine engine;
  DiffTree tree = FactoredSdss(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto apps = engine.EnumerateApplications(tree);
    benchmark::DoNotOptimize(apps);
  }
  state.counters["fanout"] = static_cast<double>(
      engine.EnumerateApplications(tree).size());
  state.counters["nodes"] = static_cast<double>(tree.NodeCount());
}
BENCHMARK(BM_EnumerateApplications)->Arg(0)->Arg(1)->Arg(8);

/// One rollout step as the search takes it: count the state's applications,
/// descend to a drawn one, Apply it. Walks from the factored tree and
/// restarts every 14 steps or at a dead end, so most counted states are
/// fresh Apply results whose new blocks are counted for the first time.
void BM_RolloutStep(benchmark::State& state) {
  RuleEngine engine;
  const DiffTree start = FactoredSdss(static_cast<int>(state.range(0)));
  SealCheckingNormal(start);  // as SearchRun::Start seals it
  DiffTree cur = start;
  size_t steps = 0;
  size_t draw = 0;
  for (auto _ : state) {
    const ApplicationCount count = engine.CountApplications(cur);
    if (count.total == 0 || ++steps == 14) {
      cur = start;
      steps = 0;
      continue;
    }
    draw = draw * 6364136223846793005ULL + 1442695040888963407ULL;
    auto next = engine.Apply(cur, engine.ApplicationAt(cur, (draw >> 33) % count.total, false));
    if (next.ok()) cur = std::move(next).MoveValueUnsafe();
  }
  state.counters["fanout"] = static_cast<double>(engine.CountApplications(start).total);
}
BENCHMARK(BM_RolloutStep)->Arg(0)->Arg(1)->Arg(8);

void BM_ApplyRule(benchmark::State& state) {
  RuleEngine engine;
  DiffTree tree = FactoredSdss(1);
  auto apps = engine.EnumerateApplications(tree);
  size_t i = 0;
  for (auto _ : state) {
    auto next = engine.Apply(tree, apps[i++ % apps.size()]);
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_ApplyRule);

void BM_MatchQuery(benchmark::State& state) {
  DiffTree tree = FactoredSdss(static_cast<int>(state.range(0)));
  auto queries = SdssAsts();
  size_t i = 0;
  for (auto _ : state) {
    auto m = MatchQuery(tree, queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MatchQuery)->Arg(0)->Arg(8);

/// Transition planning of the Listing-1 log: on an unsealed copy of
/// FactoredSdss(8) (arg 0), whose blocks cache no choice counts, like a
/// hand-built tree; round robin over 240 sealed rollout states (arg 1),
/// half from forward-biased walks and half from uniform ones, whose inverse
/// rewrites leave queries with several parses: the states a search plans
/// for; or on FactoredSdss(8) itself, which RuleEngine::Apply sealed (arg 2).
void BM_PlanTransitions(benchmark::State& state) {
  const std::vector<Ast> queries = SdssAsts();
  std::vector<DiffTree> trees;
  if (state.range(0) == 1) {
    trees = RolloutStates(queries, 11, 120, 0.8);
    for (DiffTree& s : RolloutStates(queries, 13, 120, 0.0)) trees.push_back(std::move(s));
    for (const DiffTree& t : trees) SealCheckingNormal(t);  // as the search seals its initial state
  } else if (state.range(0) == 0) {
    trees.push_back(DeepCopy(FactoredSdss(8)));
  } else {
    trees.push_back(FactoredSdss(8));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto plan = PlanTransitions(trees[i++ % trees.size()], queries, 8);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanTransitions)->Arg(0)->Arg(1)->Arg(2);

/// One session step per iteration: the Listing-1 log replayed round robin
/// through InterfaceSession::LoadQuery on the SDSS dashboard a 200-iteration
/// search generates (plan the step, rebuild the current derivation, price
/// the changed widgets).
void BM_SessionLoadQuery(benchmark::State& state) {
  GeneratorOptions opts;
  opts.screen = {100, 40};
  opts.search.time_budget_ms = 0;
  opts.search.max_iterations = 200;
  const GeneratedInterface iface = *GenerateInterface(SdssLog(), opts);
  InterfaceSession session = InterfaceSession::Create(iface, opts.constants).MoveValueUnsafe();
  size_t i = 0;
  for (auto _ : state) {
    auto report = session.LoadQuery(iface.queries[i++ % iface.queries.size()]);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SessionLoadQuery);

/// 240 sealed sdss rollout states, from forward-biased and uniform walks.
std::vector<DiffTree> SealedSdssRolloutStates() {
  const std::vector<Ast> queries = SdssAsts();
  std::vector<DiffTree> trees = RolloutStates(queries, 11, 120, 0.8);
  for (DiffTree& s : RolloutStates(queries, 13, 120, 0.0)) trees.push_back(std::move(s));
  for (const DiffTree& t : trees) SealCheckingNormal(t);
  return trees;
}

/// A rollout state's widget assigner: round robin over the sealed sdss
/// rollout states, whose choice terms a warm DeltaCostCache holds, as on a
/// search's cache misses.
void BM_WidgetAssigner(benchmark::State& state) {
  const std::vector<DiffTree> trees = SealedSdssRolloutStates();
  const CostConstants constants;
  DeltaCostCache delta;
  for (const DiffTree& t : trees) const WidgetAssigner warm(t, constants, &delta);
  size_t i = 0;
  for (auto _ : state) {
    const WidgetAssigner assigner(trees[i++ % trees.size()], constants, &delta);
    benchmark::DoNotOptimize(assigner.decisions().data());
  }
}
BENCHMARK(BM_WidgetAssigner);

/// The M(.) of one state's 8 seeded draws per iteration, round robin over
/// BM_WidgetAssigner's 240 states: /0 fills each draw's layout and sums it
/// (CostModel::LayoutM), /1 prices it from its picks (WidgetAssigner::LayoutM).
void BM_PriceDraws(benchmark::State& state) {
  const std::vector<DiffTree> trees = SealedSdssRolloutStates();
  const CostConstants constants;
  const CostModel model(constants, {100, 40});
  std::vector<std::unique_ptr<WidgetAssigner>> assigners;
  std::vector<std::vector<Assignment>> draws;
  for (size_t t = 0; t < trees.size(); ++t) {
    assigners.push_back(std::make_unique<WidgetAssigner>(trees[t], constants));
    Rng rng(t);
    draws.emplace_back();
    for (int k = 0; k < 8; ++k) draws.back().push_back(assigners.back()->RandomAssignment(&rng));
  }
  const bool from_picks = state.range(0) == 1;
  FlatLayout layout;
  size_t i = 0;
  for (auto _ : state) {
    const size_t t = i++ % trees.size();
    double sum = 0.0;
    for (const Assignment& a : draws[t]) {
      if (from_picks) {
        sum += assigners[t]->LayoutM(a);
      } else if (assigners[t]->Fill(a, &layout).ok()) {
        sum += model.LayoutM(layout);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PriceDraws)->Arg(0)->Arg(1);

void BM_EvaluateAssignment_Recompute(benchmark::State& state) {
  // The unoptimized path: derivations re-enumerated per widget tree.
  DiffTree tree = FactoredSdss(8);
  auto queries = SdssAsts();
  CostConstants constants;
  WidgetAssigner assigner(tree, constants);
  auto wt = assigner.Build(assigner.MinAppropriatenessAssignment());
  CostModel model(constants, {100, 40});
  for (auto _ : state) {
    WidgetTree copy = *wt;
    auto cost = model.Evaluate(tree, &copy, queries);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_EvaluateAssignment_Recompute);

void BM_EvaluateAssignment_PlanCached(benchmark::State& state) {
  // The optimized path: the transition plan is computed once per state.
  DiffTree tree = FactoredSdss(8);
  auto queries = SdssAsts();
  CostConstants constants;
  WidgetAssigner assigner(tree, constants);
  auto wt = assigner.Build(assigner.MinAppropriatenessAssignment());
  CostModel model(constants, {100, 40});
  TransitionPlan plan = PlanTransitions(tree, queries, 8);
  for (auto _ : state) {
    WidgetTree copy = *wt;
    auto cost = model.EvaluateWithPlan(plan, &copy);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_EvaluateAssignment_PlanCached);

/// /0 unbounded (draw, price M(.), plan, fill and price the draws that can
/// win); /1 bounded at 0, below every draw's M(.), so each call stops after
/// drawing and pricing M(.).
void BM_SampleCost(benchmark::State& state) {
  DiffTree tree = FactoredSdss(8);
  auto queries = SdssAsts();
  EvalOptions opts;
  opts.screen = {100, 40};
  opts.cache_enabled = false;
  StateEvaluator eval(opts, queries);
  Rng rng(1);
  const double bound = state.range(0) == 0 ? std::numeric_limits<double>::infinity() : 0.0;
  for (auto _ : state) {
    double c = eval.SampleCost(tree, &rng, bound);
    benchmark::DoNotOptimize(c);
  }
  state.counters["bound_skips"] = static_cast<double>(eval.bound_skips());
}
BENCHMARK(BM_SampleCost)->Arg(0)->Arg(1);

void BM_CanonicalHash(benchmark::State& state) {
  DiffTree tree = FactoredSdss(8);
  for (auto _ : state) {
    uint64_t h = tree.CanonicalHash();
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_CanonicalHash);

void BM_SyntheticLogGeneration(benchmark::State& state) {
  LogSpec spec;
  spec.num_queries = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto log = GenerateLog(spec);
    benchmark::DoNotOptimize(log);
  }
}
BENCHMARK(BM_SyntheticLogGeneration)->Arg(8)->Arg(32);

}  // namespace
}  // namespace ifgen

BENCHMARK_MAIN();
