#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "core/json_export.h"
#include "core/options.h"
#include "core/session.h"
#include "cost/cost_model.h"
#include "cost/delta.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "difftree/enumerate.h"
#include "difftree/selection.h"
#include "interface/assignment.h"
#include "reference_matcher.h"
#include "rollout_states.h"
#include "sql/parser.h"
#include "util/hash.h"
#include "workload/loader.h"
#include "workload/sdss.h"

namespace ifgen {
namespace {

Ast Q(const std::string& sql) {
  auto q = ParseQuery(sql);
  EXPECT_TRUE(q.ok()) << sql;
  return *q;
}

/// PriceTransition's navigation term for changing the widgets of `ids`.
double NavCost(const WidgetNode& root, const std::vector<int>& ids) {
  FlatLayout flat;
  Flatten(root, &flat);
  double interaction = 0.0;
  double navigation = 0.0;
  PriceTransition(&flat, ids, CostConstants{}, &interaction, &navigation);
  return navigation;
}

WidgetNode Toggle(int choice_id) {
  WidgetNode leaf;
  leaf.kind = WidgetKind::kToggle;
  leaf.choice_id = choice_id;
  return leaf;
}

TEST(SteinerNav, EmptyAndSingletonAreFree) {
  WidgetNode root;
  root.kind = WidgetKind::kVertical;
  root.children = {Toggle(0), Toggle(1)};
  EXPECT_DOUBLE_EQ(NavCost(root, {}), 0.0);
  EXPECT_DOUBLE_EQ(NavCost(root, {0}), 0.0);
  EXPECT_DOUBLE_EQ(NavCost(root, {1, 1}), 0.0);  // one widget, named twice
}

TEST(SteinerNav, SiblingsCostTwoEdges) {
  WidgetNode root;
  root.kind = WidgetKind::kVertical;
  root.children = {Toggle(0), Toggle(1), Toggle(2)};
  CostConstants c;
  // Connecting children 0 and 2: two edges through the root.
  EXPECT_DOUBLE_EQ(NavCost(root, {0, 2}), 2 * c.nav_edge);
  // All three: three edges.
  EXPECT_DOUBLE_EQ(NavCost(root, {0, 1, 2}), 3 * c.nav_edge);
  // An id without a widget (owned by an adder) is skipped.
  EXPECT_DOUBLE_EQ(NavCost(root, {0, 7, 2}), 2 * c.nav_edge);
}

TEST(SteinerNav, DeepPathCountsIntermediateEdges) {
  WidgetNode root;
  root.kind = WidgetKind::kVertical;
  WidgetNode mid;
  mid.kind = WidgetKind::kHorizontal;
  mid.children = {Toggle(0)};
  root.children = {mid, Toggle(1)};
  CostConstants c;
  // The deep widget and its root-level sibling: edges root->mid, mid->leaf,
  // root->leaf.
  EXPECT_DOUBLE_EQ(NavCost(root, {0, 1}), 3 * c.nav_edge);
}

TEST(SteinerNav, TabEdgesCostMore) {
  WidgetNode tabs;
  tabs.kind = WidgetKind::kTabs;
  tabs.children = {Toggle(0), Toggle(1)};
  CostConstants c;
  EXPECT_DOUBLE_EQ(NavCost(tabs, {0, 1}), 2 * c.nav_tab_switch);
}

TEST(Plan, ChangedIdsPerTransition) {
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t"),
                              Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  TransitionPlan plan = PlanTransitions(d, queries, 8);
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.changed_ids.size(), 3u);
  EXPECT_TRUE(plan.changed_ids[0].empty());   // initial config is free
  EXPECT_EQ(plan.changed_ids[1].size(), 1u);  // a -> b flips the ANY
  EXPECT_TRUE(plan.changed_ids[2].empty());   // repeat costs nothing
}

TEST(Plan, InexpressibleQueryInvalidates) {
  std::vector<Ast> queries = {Q("select a from t")};
  DiffTree d = *BuildInitialTree(queries);
  TransitionPlan plan = PlanTransitions(d, {Q("select zz from t")}, 8);
  EXPECT_FALSE(plan.valid);
}

TEST(Plan, MinChangeParsePrefersStickyState) {
  // Duplicated alternative: query matches alt0 or alt2. After loading alt2's
  // twin (via a distinct query), re-loading should pick the parse that
  // changes nothing.
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t"),
                              Q("select a from t")};
  DiffTree d = DiffTree::Any({DiffTree::FromAst(queries[0]),
                              DiffTree::FromAst(queries[1]),
                              DiffTree::FromAst(queries[0])});
  TransitionPlan plan = PlanTransitions(d, queries, 8);
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.changed_ids[1].size(), 1u);
  EXPECT_EQ(plan.changed_ids[2].size(), 1u);  // back to alt0 (not alt2 drift)
}

class CostModelTest : public ::testing::Test {
 protected:
  CostConstants constants_;
  std::vector<Ast> queries_ = {Q("select Sales from sales where cty = 'USA'"),
                               Q("select Costs from sales where cty = 'EUR'"),
                               Q("select Costs from sales")};
};

TEST_F(CostModelTest, EvaluateBreakdown) {
  DiffTree d = *BuildInitialTree(queries_);
  WidgetAssigner assigner(d, constants_);
  auto wt = assigner.Build(assigner.MinAppropriatenessAssignment());
  ASSERT_TRUE(wt.ok());
  CostModel model(constants_, {80, 24});
  CostBreakdown cost = model.Evaluate(d, &*wt, queries_);
  ASSERT_TRUE(cost.valid) << cost.invalid_reason;
  EXPECT_GT(cost.m_total, 0.0);
  EXPECT_GT(cost.u_total, 0.0);
  ASSERT_EQ(cost.per_transition.size(), 2u);
  EXPECT_DOUBLE_EQ(cost.total(), cost.m_total + cost.u_total);
}

TEST_F(CostModelTest, TinyScreenInvalidates) {
  DiffTree d = *BuildInitialTree(queries_);
  WidgetAssigner assigner(d, constants_);
  auto wt = assigner.Build(assigner.MinAppropriatenessAssignment());
  ASSERT_TRUE(wt.ok());
  CostModel model(constants_, {4, 1});
  CostBreakdown cost = model.Evaluate(d, &*wt, queries_);
  EXPECT_FALSE(cost.valid);
  EXPECT_TRUE(std::isinf(cost.total()));
}

TEST_F(CostModelTest, PlanAndDirectEvaluationAgree) {
  DiffTree d = *BuildInitialTree(queries_);
  WidgetAssigner assigner(d, constants_);
  CostModel model(constants_, {80, 24});
  TransitionPlan plan = PlanTransitions(d, queries_, 8);
  Assignment a = assigner.FirstAssignment();
  do {
    auto wt1 = assigner.Build(a);
    ASSERT_TRUE(wt1.ok());
    auto wt2 = *wt1;
    CostBreakdown direct = model.Evaluate(d, &*wt1, queries_);
    CostBreakdown planned = model.EvaluateWithPlan(plan, &wt2);
    EXPECT_DOUBLE_EQ(direct.total(), planned.total());
  } while (assigner.NextAssignment(&a));
}

TEST_F(CostModelTest, RepeatedQueriesCostNothing) {
  std::vector<Ast> repeated = {queries_[0], queries_[0], queries_[0]};
  DiffTree d = *BuildInitialTree(queries_);
  WidgetAssigner assigner(d, constants_);
  auto wt = assigner.Build(assigner.FirstAssignment());
  ASSERT_TRUE(wt.ok());
  CostModel model(constants_, {80, 24});
  CostBreakdown cost = model.Evaluate(d, &*wt, repeated);
  ASSERT_TRUE(cost.valid);
  EXPECT_DOUBLE_EQ(cost.u_total, 0.0);
}

TEST(Evaluator, SampleCostFiniteOnViableState) {
  auto queries = *ParseQueries(
      std::vector<std::string>{"select a from t", "select b from t"});
  DiffTree d = *BuildInitialTree(queries);
  EvalOptions opts;
  opts.screen = {80, 24};
  StateEvaluator eval(opts, queries);
  Rng rng(1);
  double cost = eval.SampleCost(d, &rng);
  EXPECT_TRUE(std::isfinite(cost));
}

TEST(Evaluator, CacheHitsOnRepeatedStates) {
  auto queries = *ParseQueries(
      std::vector<std::string>{"select a from t", "select b from t"});
  DiffTree d = *BuildInitialTree(queries);
  EvalOptions opts;
  opts.screen = {80, 24};
  StateEvaluator eval(opts, queries);
  Rng rng(1);
  double c1 = eval.SampleCost(d, &rng);
  size_t evals = eval.evaluations();
  double c2 = eval.SampleCost(d, &rng);
  EXPECT_DOUBLE_EQ(c1, c2);
  EXPECT_EQ(eval.evaluations(), evals);  // served from cache
  EXPECT_GE(eval.cache_hits(), 1u);
}

TEST(Evaluator, GreedySeedNeverWorseThanPureRandom) {
  auto queries = *ParseQueries(SdssListing1());
  DiffTree d = *BuildInitialTree(queries);
  EvalOptions with_seed;
  with_seed.screen = {100, 40};
  with_seed.cache_enabled = false;
  EvalOptions without = with_seed;
  without.greedy_seed = false;
  StateEvaluator e1(with_seed, queries);
  StateEvaluator e2(without, queries);
  Rng r1(9);
  Rng r2(9);
  EXPECT_LE(e1.SampleCost(d, &r1), e2.SampleCost(d, &r2) + 1e-9);
}

TEST(Evaluator, FindBestBeatsSampling) {
  auto queries = *ParseQueries(
      std::vector<std::string>{"select a from t where x between 1 and 5",
                               "select b from t where x between 2 and 9"});
  DiffTree d = *BuildInitialTree(queries);
  EvalOptions opts;
  opts.screen = {80, 24};
  StateEvaluator eval(opts, queries);
  Rng rng(1);
  double sampled = eval.SampleCost(d, &rng);
  auto best = eval.FindBest(d, &rng);
  ASSERT_TRUE(best.ok());
  EXPECT_LE(best->cost.total(), sampled + 1e-9);
}

TEST(Transition, PricesChangedWidgets) {
  CostConstants constants;
  std::vector<Ast> queries = {Q("select a from t"), Q("select b from t")};
  DiffTree d = *BuildInitialTree(queries);
  WidgetAssigner assigner(d, constants);
  auto wt = assigner.Build(assigner.MinAppropriatenessAssignment());
  ASSERT_TRUE(wt.ok());
  FlatLayout flat;
  Flatten(wt->root, &flat);
  StickyState state(d);
  std::vector<int> changed;
  ASSERT_TRUE(state.Step(d, queries[0], 8, &changed));
  ASSERT_TRUE(state.Step(d, queries[1], 8, &changed));
  EXPECT_EQ(changed.size(), 1u);
  double interaction = 0.0;
  double navigation = 0.0;
  PriceTransition(&flat, changed, constants, &interaction, &navigation);
  EXPECT_GT(interaction, 0.0);
  StickyState fresh(d);
  EXPECT_FALSE(fresh.Step(d, Q("select z from t"), 8, &changed));
}

// ---------------------------------------------------------------------------
// Evaluation pin: digests of everything state evaluation computes, over
// seeded rollout states of three workloads. Each digest folds exact bit
// patterns, so any reordering of parses, any last-bit drift of a cost term
// and any change to the materialized winner fails the test. When a
// deliberate behavior change moves them, the failure message prints the
// replacement row.

struct EvalPin {
  const char* workload;
  uint64_t seed;
  size_t states;
  uint64_t derivations;  ///< Encode() lists at parse_limit 8 and 2, per query
  uint64_t breakdowns;   ///< greedy, first and 16 random assignments + SampleCost
  uint64_t find_best;    ///< winning cost, assignment and widget tree
};

// Recorded before the flat scorer and the allocation-free matcher landed.
const EvalPin kEvalPins[] = {
    {"flights", 11, 48, 0x91a85767bb861249ULL, 0x180d3fb5d0dfd43fULL, 0xe971ea98b02523f1ULL},
    {"sdss", 11, 48, 0x6973c1ea83b5c56eULL, 0xca335f07a84abdd0ULL, 0x65101da7ada46984ULL},
    {"synthetic", 11, 48, 0x6cbe18b63e5eaa57ULL, 0x3f26b888afa3a909ULL, 0x06ccfe88a9237c8dULL},
};

uint64_t FoldBits(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return HashCombine(h, bits);
}

uint64_t FoldBreakdown(uint64_t h, const CostBreakdown& c) {
  h = HashCombine(h, c.valid ? 1 : 0);
  h = FoldBits(h, c.m_total);
  h = FoldBits(h, c.u_total);
  h = HashCombine(h, c.per_transition.size());
  for (double t : c.per_transition) h = FoldBits(h, t);
  h = HashCombine(h, static_cast<uint64_t>(c.layout_width));
  return HashCombine(h, static_cast<uint64_t>(c.layout_height));
}

uint64_t FoldWidget(uint64_t h, const WidgetNode& n) {
  h = HashCombine(h, static_cast<uint64_t>(n.kind));
  h = HashCombine(h, static_cast<uint64_t>(n.size_class));
  h = HashCombine(h, static_cast<uint64_t>(n.choice_id + 1));
  h = HashCombine(h, static_cast<uint64_t>(n.choice_id2 + 1));
  h = HashBytes(n.label, h);
  h = HashCombine(h, static_cast<uint64_t>(n.domain.node_kind));
  h = HashCombine(h, n.domain.cardinality);
  for (const std::string& l : n.domain.labels) h = HashBytes(l, HashCombine(h, l.size()));
  h = FoldBits(h, n.domain.num_lo);
  h = FoldBits(h, n.domain.num_hi);
  h = FoldBits(h, n.domain.avg_subtree_nodes);
  for (int v : {n.width, n.height, n.x, n.y}) h = HashCombine(h, static_cast<uint64_t>(v));
  h = HashCombine(h, n.children.size());
  for (const WidgetNode& c : n.children) h = FoldWidget(h, c);
  return h;
}

TEST(EvaluationPin, RolloutStatesEvaluateBitForBit) {
  for (const EvalPin& pin : kEvalPins) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(pin.workload, 10)->log);
    // Half the states come from search-like forward-biased walks, half from
    // uniform walks, whose inverse rewrites leave queries with several
    // parses, so parse order is pinned too (the seeds give every workload
    // such queries; the test checks that they still do).
    std::vector<DiffTree> states = RolloutStates(queries, pin.seed, pin.states / 2, 0.8);
    for (DiffTree& s : RolloutStates(queries, pin.seed + 2, pin.states - states.size(), 0.0)) {
      states.push_back(std::move(s));
    }
    EvalOptions sample_opts = GeneratorOptions().MakeEvalOptions();
    sample_opts.cache_enabled = false;
    EvalOptions best_opts = sample_opts;
    best_opts.enumeration_cap = 1024;
    best_opts.sample_fallback = 48;
    StateEvaluator sampler(sample_opts, queries);
    StateEvaluator finder(best_opts, queries);
    const CostModel model(sample_opts.constants, sample_opts.screen,
                          sample_opts.parse_limit);
    DeltaCostCache delta;
    uint64_t derivations = 0, breakdowns = 0, find_best = 0;
    size_t ambiguous = 0;  // (state, query) pairs with several parses
    for (size_t i = 0; i < states.size(); ++i) {
      const DiffTree& s = states[i];
      for (const Ast& q : queries) {
        for (size_t limit : {8, 2}) {
          std::vector<Derivation> ds = EnumerateDerivations(s, q, limit);
          derivations = HashCombine(derivations, ds.size());
          if (limit == 8 && ds.size() > 1) ++ambiguous;
          for (const Derivation& d : ds) derivations = HashBytes(d.Encode(), derivations);
        }
      }

      WidgetAssigner assigner(s, sample_opts.constants, &delta);
      const TransitionPlan plan = PlanTransitions(s, queries, sample_opts.parse_limit);
      breakdowns = HashCombine(breakdowns, assigner.viable() ? 1 : 0);
      breakdowns = HashCombine(breakdowns, plan.valid ? 1 : 0);
      for (const std::vector<int>& ids : plan.changed_ids) {
        breakdowns = HashCombine(breakdowns, ids.size());
        for (int id : ids) breakdowns = HashCombine(breakdowns, static_cast<uint64_t>(id));
      }
      auto score = [&](const Assignment& a) {
        for (int p : a.picks) breakdowns = HashCombine(breakdowns, static_cast<uint64_t>(p));
        Result<WidgetTree> wt = assigner.Build(a);
        breakdowns = HashCombine(breakdowns, wt.ok() ? 1 : 0);
        if (wt.ok()) breakdowns = FoldBreakdown(breakdowns, model.EvaluateWithPlan(plan, &*wt));
      };
      score(assigner.MinAppropriatenessAssignment());
      score(assigner.FirstAssignment());
      Rng draws(HashCombine(pin.seed, i));
      for (int k = 0; k < 16; ++k) score(assigner.RandomAssignment(&draws));
      Rng sample_rng(i);
      breakdowns = FoldBits(breakdowns, sampler.SampleCost(s, &sample_rng));

      Rng best_rng(i);
      Result<ScoredWidgetTree> best = finder.FindBest(s, &best_rng);
      find_best = HashCombine(find_best, best.ok() ? 1 : 0);
      if (best.ok()) {
        find_best = FoldBits(find_best, best->cost.total());
        find_best = FoldBreakdown(find_best, best->cost);
        for (int p : best->assignment.picks) {
          find_best = HashCombine(find_best, static_cast<uint64_t>(p));
        }
        find_best = FoldWidget(find_best, best->tree.root);
      }
    }
    char row[200];
    std::snprintf(row, sizeof row,
                  "{\"%s\", %" PRIu64 ", %zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL},",
                  pin.workload, pin.seed, pin.states, derivations, breakdowns, find_best);
    EXPECT_GT(ambiguous, 0u) << pin.workload << ": no query with several parses";
    EXPECT_EQ(derivations, pin.derivations) << row;
    EXPECT_EQ(breakdowns, pin.breakdowns) << row;
    EXPECT_EQ(find_best, pin.find_best) << row;
  }
}

// ---------------------------------------------------------------------------
// Bounded evaluation (docs/cost-model.md): a bound changes which misses are
// planned and priced, never the draws, the evaluation count or a cost below
// it.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Forward-biased and uniform rollout states, `n` in all.
std::vector<DiffTree> BoundStates(const std::vector<Ast>& queries, size_t n) {
  std::vector<DiffTree> states = RolloutStates(queries, 5, n / 2, 0.8);
  for (DiffTree& s : RolloutStates(queries, 6, n - states.size(), 0.0)) {
    states.push_back(std::move(s));
  }
  return states;
}

/// SampleCost's draws (the greedy seed, then k - 1 random ones from `rng`),
/// each priced in full by ScoreLayout.
double FullyPricedSample(const DiffTree& tree, const std::vector<Ast>& queries,
                         const EvalOptions& opts, Rng* rng) {
  const WidgetAssigner assigner(tree, opts.constants);
  if (!assigner.viable()) return kInf;
  const CostModel model(opts.constants, opts.screen, opts.parse_limit);
  const TransitionPlan plan = PlanTransitions(tree, queries, opts.parse_limit);
  FlatLayout layout;
  CostBreakdown cost;
  double best = kInf;
  auto score = [&](const Assignment& a) {
    if (!assigner.Fill(a, &layout).ok()) return;
    model.ScoreLayout(plan, &layout, &cost);
    best = std::min(best, cost.total());
  };
  score(assigner.MinAppropriatenessAssignment());
  for (size_t i = 1; i < opts.k_assignments; ++i) score(assigner.RandomAssignment(rng));
  return best;
}

TEST(Evaluator, BoundedSampleCostMatchesUnbounded) {
  size_t skips = 0;
  size_t resolves = 0;
  for (const char* workload : {"sdss", "flights", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    const std::vector<DiffTree> states = BoundStates(queries, 40);
    for (bool state_keyed : {false, true}) {
      EvalOptions opts = GeneratorOptions().MakeEvalOptions();
      opts.state_keyed_sampling = state_keyed;
      opts.sampling_seed = 3;
      // Unbounded, each draw is priced only while it can beat the best
      // earlier one; the minimum is that of full pricing.
      EvalOptions uncached_opts = opts;
      uncached_opts.cache_enabled = false;
      StateEvaluator uncached(uncached_opts, queries);
      for (size_t i = 0; i < states.size(); ++i) {
        Rng rng(i);
        Rng draws(state_keyed ? HashCombine(opts.sampling_seed, states[i].CanonicalHash()) : i);
        EXPECT_EQ(uncached.SampleCost(states[i], &rng),
                  FullyPricedSample(states[i], queries, opts, &draws))
            << workload << " keyed " << state_keyed << " state " << i;
      }
      for (int kind = 0; kind < 4; ++kind) {  // 0, random, the exact cost, +inf
        StateEvaluator exact(opts, queries);
        StateEvaluator bounded(opts, queries);
        Rng pick(static_cast<uint64_t>(kind));
        for (size_t i = 0; i < states.size(); ++i) {
          const std::string where = std::string(workload) + " keyed " +
                                    std::to_string(state_keyed) + " bound kind " +
                                    std::to_string(kind) + " state " + std::to_string(i);
          Rng want_rng(i);
          Rng got_rng(i);
          const double want = exact.SampleCost(states[i], &want_rng);
          const double bound =
              kind == 0   ? 0.0
              : kind == 1 ? pick.UniformDouble(0.0, std::isfinite(want) ? 2 * want : 40.0)
              : kind == 2 ? want
                          : kInf;
          const double got = bounded.SampleCost(states[i], &got_rng, bound);
          EXPECT_EQ(got_rng.Next(), want_rng.Next()) << where;
          EXPECT_EQ(bounded.evaluations(), exact.evaluations()) << where;
          if (want < bound) {
            EXPECT_EQ(got, want) << where;
          } else {
            EXPECT_GE(got, bound) << where;
          }
        }
        // Unbounded again: every deferred entry resolves to the cost the
        // exact evaluator memoized, without an evaluation.
        for (size_t i = 0; i < states.size(); ++i) {
          Rng rng(i);
          EXPECT_EQ(bounded.SampleCost(states[i], &rng),
                    *exact.MemoCost(states[i].CanonicalHash()))
              << workload << " keyed " << state_keyed << " kind " << kind << " state " << i;
        }
        EXPECT_EQ(bounded.evaluations(), exact.evaluations());
        EXPECT_EQ(bounded.deferred_resolves() == 0, bounded.bound_skips() == 0);
        skips += bounded.bound_skips();
        resolves += bounded.deferred_resolves();
      }
    }
  }
  EXPECT_GT(skips, 0u);
  EXPECT_GT(resolves, 0u);
}

TEST(Evaluator, DeferredEntryResolvesToFirstTreesCost) {
  const EvalOptions opts = GeneratorOptions().MakeEvalOptions();
  Rng shuffle(5);
  size_t checked = 0;
  size_t order_matters = 0;  // a fresh sample of the permuted copy differs
  for (const char* workload : {"sdss", "flights", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    const std::vector<DiffTree> states = BoundStates(queries, 60);
    for (size_t i = 0; i < states.size(); ++i) {
      const DiffTree& s = states[i];
      const std::string where = std::string(workload) + " state " + std::to_string(i);
      StateEvaluator reference(opts, queries);
      Rng ref_rng(i);
      const double want = reference.SampleCost(s, &ref_rng);
      if (!std::isfinite(want)) continue;

      StateEvaluator pruned(opts, queries);
      Rng rng(i);
      const double lower = pruned.SampleCost(s, &rng, 0.0);
      ASSERT_EQ(pruned.bound_skips(), 1u) << where;
      EXPECT_GE(lower, 0.0) << where;
      EXPECT_LE(lower, want) << where;
      const uint64_t key = s.CanonicalHash();
      EXPECT_FALSE(pruned.MemoCost(key).has_value()) << where;

      const DiffTree permuted = ShuffleAnys(s, &shuffle);
      ASSERT_EQ(permuted.CanonicalHash(), key) << where;
      StateEvaluator fresh(opts, queries);
      Rng fresh_rng(i);
      order_matters += fresh.SampleCost(permuted, &fresh_rng) != want;

      const size_t evaluations = pruned.evaluations();
      Rng unused(99);
      EXPECT_EQ(pruned.SampleCost(permuted, &unused), want) << where;
      EXPECT_EQ(pruned.evaluations(), evaluations) << where;
      EXPECT_EQ(pruned.deferred_resolves(), 1u) << where;
      EXPECT_EQ(pruned.MemoCost(key), std::optional<double>(want)) << where;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(order_matters, 0u);
}

TEST(Evaluator, DeferredEntryOfAChoiceFreeState) {
  // No decisions: every draw is the empty assignment, recorded in no bytes.
  const std::vector<Ast> queries = *ParseQueries(std::vector<std::string>{"select a from t"});
  const DiffTree d = DiffTree::FromAst(queries[0]);
  const EvalOptions opts = GeneratorOptions().MakeEvalOptions();
  StateEvaluator reference(opts, queries);
  Rng ref_rng(1);
  const double want = reference.SampleCost(d, &ref_rng);
  ASSERT_TRUE(std::isfinite(want));
  StateEvaluator pruned(opts, queries);
  Rng rng(1);
  EXPECT_LE(pruned.SampleCost(d, &rng, 0.0), want);
  ASSERT_EQ(pruned.bound_skips(), 1u);
  EXPECT_EQ(pruned.SampleCost(d, &rng), want);
  EXPECT_EQ(pruned.deferred_resolves(), 1u);
}

TEST(Evaluator, NegativeConstantsDisableBound) {
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  const std::vector<DiffTree> states = BoundStates(queries, 16);
  struct Case {
    CostConstants constants;
    bool bounds_apply;
  };
  Case negative{CostConstants{}, false};
  negative.constants.nav_edge = -0.02;
  Case nan{CostConstants{}, false};
  nan.constants.i_dropdown_log_factor = std::numeric_limits<double>::quiet_NaN();
  // The default constants prune the same states at bound 0.
  for (const Case& c : {Case{CostConstants{}, true}, negative, nan}) {
    EvalOptions opts = GeneratorOptions().MakeEvalOptions();
    opts.constants = c.constants;
    StateEvaluator reference(opts, queries);
    StateEvaluator bounded(opts, queries);
    for (size_t i = 0; i < states.size(); ++i) {
      Rng want_rng(i);
      Rng got_rng(i);
      const double want = reference.SampleCost(states[i], &want_rng);
      const double got = bounded.SampleCost(states[i], &got_rng, 0.0);
      if (!c.bounds_apply) {
        EXPECT_TRUE(got == want || (std::isnan(got) && std::isnan(want))) << "state " << i;
      }
    }
    EXPECT_EQ(bounded.bound_skips() > 0, c.bounds_apply);
  }
}

TEST(Evaluator, ConcurrentBoundedMissesAndResolves) {
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  const std::vector<DiffTree> states = BoundStates(queries, 40);
  EvalOptions opts = GeneratorOptions().MakeEvalOptions();
  // A state's draws then do not depend on which thread misses first.
  opts.state_keyed_sampling = true;
  StateEvaluator reference(opts, queries);
  std::vector<double> want;
  for (const DiffTree& s : states) {
    Rng rng(0);
    want.push_back(reference.SampleCost(s, &rng));
  }
  StateEvaluator shared(opts, queries);
  Rng first(0);
  shared.SampleCost(states[1], &first, 0.0);  // at least one deferred entry
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t k = 0; k < states.size(); ++k) {
          const size_t i = t % 2 == 0 ? k : states.size() - 1 - k;
          // First pass: half the calls pruned at bound 0. Second: exact.
          const bool bounded = pass == 0 && (i + t) % 2 == 0;
          const double got = shared.SampleCost(states[i], &rng, bounded ? 0.0 : kInf);
          if (bounded ? !(got >= 0.0 && got <= want[i]) : got != want[i]) {
            failures[t].push_back("pass " + std::to_string(pass) + " state " +
                                  std::to_string(i));
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_TRUE(failures[t].empty()) << failures[t][0];
  EXPECT_GT(shared.bound_skips(), 0u);
  EXPECT_GT(shared.deferred_resolves(), 0u);
}

// ---------------------------------------------------------------------------
// Transition planning against its reference: the planner that copied every
// parse out of the reference (Derivation-building) matcher, built its
// SelectionMap and counted changes on a copy of the sticky state.

TransitionPlan ReferencePlan(const DiffTree& tree, const std::vector<Ast>& queries,
                             size_t parse_limit) {
  using reference::SelectionMap;
  TransitionPlan plan;
  ChoiceIndex index(tree);
  SelectionMap state;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<Derivation> derivs =
        reference::Enumerate(tree, queries[qi], parse_limit).parses;
    if (derivs.empty()) {
      plan.valid = false;
      plan.invalid_reason = "query " + std::to_string(qi) + " inexpressible";
      return plan;
    }
    size_t best_changed = static_cast<size_t>(-1);
    SelectionMap best_next;
    std::vector<int> best_ids;
    for (const Derivation& d : derivs) {
      SelectionMap sels = reference::ExtractSelections(index, d);
      SelectionMap trial = state;
      std::vector<int> ids;
      size_t changed = reference::CountChangedAndAdvance(sels, &trial, &ids);
      if (changed < best_changed) {
        best_changed = changed;
        best_next = std::move(trial);
        best_ids = std::move(ids);
        if (best_changed == 0) break;
      }
    }
    plan.changed_ids.push_back(qi == 0 ? std::vector<int>{} : std::move(best_ids));
    state = std::move(best_next);
  }
  plan.valid = true;
  return plan;
}

/// The pin's mix of forward-biased and uniform rollout states.
std::vector<DiffTree> PlanningStates(const std::vector<Ast>& queries) {
  std::vector<DiffTree> states = RolloutStates(queries, 11, 24, 0.8);
  for (DiffTree& s : RolloutStates(queries, 13, 24, 0.0)) states.push_back(std::move(s));
  return states;
}

void ExpectSamePlan(const TransitionPlan& got, const TransitionPlan& want,
                    const std::string& where) {
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.invalid_reason, want.invalid_reason) << where;
  EXPECT_EQ(got.changed_ids, want.changed_ids) << where;  // order included
}

TEST(Plan, MatchesReferencePlanner) {
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    // The same log with one query no state expresses: invalid mid-log.
    std::vector<Ast> broken = queries;
    broken.insert(broken.begin() + 3, Q("select zz from nowhere"));
    size_t reordered = 0;  // transitions whose ids are not in selection order
    size_t multi_id = 0;   // transitions changing several ids
    const std::vector<DiffTree> states = PlanningStates(queries);
    for (size_t i = 0; i < states.size(); ++i) {
      for (size_t limit : {8, 2, 1}) {
        const std::string where =
            std::string(workload) + " state " + std::to_string(i) + " limit " +
            std::to_string(limit);
        const TransitionPlan want = ReferencePlan(states[i], queries, limit);
        const TransitionPlan got = PlanTransitions(states[i], queries, limit);
        ExpectSamePlan(got, want, where);
        // Unsealed, the matcher counts choices below each node itself
        // instead of reading the blocks' cached counts.
        ExpectSamePlan(PlanTransitions(DeepCopy(states[i]), queries, limit), want,
                       where + " deep copy");
        ExpectSamePlan(PlanTransitions(states[i], broken, limit),
                       ReferencePlan(states[i], broken, limit), where + " broken");
        for (const std::vector<int>& ids : want.changed_ids) {
          if (ids.size() > 1) ++multi_id;
          if (!std::is_sorted(ids.begin(), ids.end())) ++reordered;
        }
      }
    }
    // The order rule is exercised: several ids change, out of id order.
    EXPECT_GT(multi_id, 0u) << workload;
    EXPECT_GT(reordered, 0u) << workload;
  }
}

TEST(Plan, SelectionCodesMatchSelectionMaps) {
  // Two first parses give one id equal codes iff the reference selection
  // maps give it equal strings (for a MULTI, equal Encode()s), and both
  // hold the same ids: the co-occurrence model keys its counts on codes.
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> log = *ParseQueries(LoadWorkload(workload, 10)->log);
    size_t multis = 0;
    // Seeds whose walks reach MULTIs on every workload.
    std::vector<DiffTree> states = RolloutStates(log, 24, 48, 0.8);
    for (DiffTree& s : RolloutStates(log, 23, 48, 0.0)) states.push_back(std::move(s));
    for (const DiffTree& s : states) {
      std::vector<Ast> queries = log;
      for (Ast& q : EnumerateQueries(s, 20)) queries.push_back(std::move(q));
      const ChoiceIndex index(s);
      StickyState codes(s);
      std::vector<std::map<int, int>> got;
      std::vector<reference::SelectionMap> want;
      ParseTrail trail;
      for (const Ast& q : queries) {
        std::vector<StickyState::Selection> sels;
        ForEachParse(s, q, 1, &trail, [&](const ParseTrail& t) {
          codes.Score(t, &sels);
          return true;
        });
        std::map<int, int>& by_id = got.emplace_back();
        for (const StickyState::Selection& sel : sels) by_id[sel.id] = sel.code;
        std::optional<Derivation> d = reference::Match(s, q);
        want.push_back(d.has_value() ? reference::ExtractSelections(index, *d)
                                     : reference::SelectionMap{});
        ASSERT_EQ(by_id.size(), want.back().size()) << workload;
        for (const auto& [id, sel] : want.back()) {
          ASSERT_EQ(by_id.count(id), 1u) << workload << " id " << id;
          multis += index.node(static_cast<size_t>(id))->kind == DKind::kMulti;
        }
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        for (size_t j = i + 1; j < queries.size(); ++j) {
          for (const auto& [id, code] : got[i]) {
            auto other = got[j].find(id);
            if (other == got[j].end()) continue;
            EXPECT_EQ(code == other->second, want[i].at(id) == want[j].at(id))
                << workload << " id " << id << " queries " << i << ", " << j;
          }
        }
      }
    }
    EXPECT_GT(multis, 0u) << workload;
  }
}

TEST(Plan, MultiCodesCoverCountsAndCopies) {
  // PROJECT(MULTI(a), MULTI(ANY(b, c))): ids 0 (the first MULTI), 1 (the
  // second) and 2 (its ANY). The first MULTI's copies have no choices, so
  // only their count tells its selections apart; the second's copies differ
  // by their ANY values at equal counts.
  DiffTree proj(Symbol::kProject, "");
  proj.children.push_back(DiffTree::Multi(DiffTree::FromAst(Col("a"))));
  proj.children.push_back(DiffTree::Multi(
      DiffTree::Any({DiffTree::FromAst(Col("b")), DiffTree::FromAst(Col("c"))})));
  auto cols = [](std::vector<std::string> names) {
    std::vector<Ast> out;
    for (const std::string& n : names) out.push_back(Col(n));
    return Ast(Symbol::kProject, "", std::move(out));
  };
  const std::vector<Ast> queries = {cols({"a", "b"}),      cols({"a", "a", "b"}),
                                    cols({"a", "a", "b"}), cols({"a", "a", "c"}),
                                    cols({"b", "c"}),      cols({"a", "c", "b"}),
                                    cols({"a", "b", "c"})};
  const std::vector<std::vector<int>> want_ids = {{}, {0}, {}, {1}, {0, 1}, {0, 1}, {1}};
  for (bool sealed : {false, true}) {
    if (sealed) SealCheckingNormal(proj);
    const TransitionPlan want = ReferencePlan(proj, queries, kParseLimit);
    ASSERT_TRUE(want.valid);
    std::vector<std::vector<int>> sorted = want.changed_ids;
    for (std::vector<int>& ids : sorted) std::sort(ids.begin(), ids.end());
    EXPECT_EQ(sorted, want_ids);
    ExpectSamePlan(PlanTransitions(proj, queries, kParseLimit), want,
                   sealed ? "sealed" : "unsealed");
  }
}

TEST(Plan, InternedMultiCodesStayBounded) {
  // PROJECT(MULTI(a), MULTI(ANY(b, c))) as in MultiCodesCoverCountsAndCopies:
  // three choice ids. Widget events setting ever new MULTI values must not
  // grow the intern table without bound, and dropping unheld values must
  // keep the held ones' codes.
  DiffTree proj(Symbol::kProject, "");
  proj.children.push_back(DiffTree::Multi(DiffTree::FromAst(Col("a"))));
  proj.children.push_back(DiffTree::Multi(
      DiffTree::Any({DiffTree::FromAst(Col("b")), DiffTree::FromAst(Col("c"))})));
  SealCheckingNormal(proj);
  auto cols = [](std::vector<std::string> names) {
    std::vector<Ast> out;
    for (const std::string& n : names) out.push_back(Col(n));
    return Ast(Symbol::kProject, "", std::move(out));
  };
  const DiffTree& multi = std::as_const(proj).children[0];
  auto copies = [&](size_t count) {  // as InterfaceSession::SetMultiCount builds it
    Derivation d = DefaultDerivation(multi);
    d.choice = static_cast<int>(count);
    d.children.assign(count, DefaultDerivation(multi.children[0]));
    return d;
  };
  const size_t bound = 2 * proj.ChoiceCount() + 64 + 1;
  StickyState state(proj);
  std::vector<int> changed;
  ASSERT_TRUE(state.Step(proj, cols({"a", "b"}), kParseLimit, &changed));
  for (size_t count = 0; count <= 300; ++count) {
    state.SetMultiCode(0, copies(count));
    EXPECT_LE(state.interned(), bound) << count;
  }
  state.SetMultiCode(0, copies(2));
  ASSERT_TRUE(state.Step(proj, cols({"a", "a", "b"}), kParseLimit, &changed));
  EXPECT_EQ(changed, std::vector<int>{});
  ASSERT_TRUE(state.Step(proj, cols({"a", "b"}), kParseLimit, &changed));
  EXPECT_EQ(changed, std::vector<int>{0});
  EXPECT_LE(state.interned(), bound);
}

// ---------------------------------------------------------------------------
// Choice ids are positions, not addresses: one shared block may sit at two
// positions of a tree, so the same choice node object has two ids.

TEST(Plan, SharedSubtreeKeepsPositionalIds) {
  // Select(Project(a), From(t), Where(And(P, P))) with P = (x = ANY(1, 2)):
  // both copies of P share one child block, so both predicates hold the
  // same ANY object.
  DiffTree tree = DiffTree::FromAst(Q("select a from t where x = 1 and x = 1"));
  DiffTree* conj = MutableNodeAt(&tree, {2, 0});
  ASSERT_NE(conj, nullptr);
  const DiffTree pred(Symbol::kBiExpr, "=",
                      {DiffTree::FromAst(Ast(Symbol::kColExpr, "x")),
                       DiffTree::Any({DiffTree::FromAst(Ast(Symbol::kNumExpr, "1")),
                                      DiffTree::FromAst(Ast(Symbol::kNumExpr, "2"))})});
  conj->children = {pred, pred};
  const DiffTree deep = DeepCopy(tree);
  const ChoiceIndex index(tree);
  const ChoiceIndex deep_index(deep);
  ASSERT_EQ(index.size(), 2u);
  ASSERT_EQ(index.node(0), index.node(1));  // one object at two positions
  ASSERT_NE(deep_index.node(0), deep_index.node(1));

  const std::vector<Ast> queries = {Q("select a from t where x = 1 and x = 1"),
                                    Q("select a from t where x = 1 and x = 2"),
                                    Q("select a from t where x = 2 and x = 2"),
                                    Q("select a from t where x = 2 and x = 1")};
  for (size_t limit : {8, 1}) {
    const TransitionPlan want = PlanTransitions(deep, queries, limit);
    ASSERT_TRUE(want.valid);
    ExpectSamePlan(PlanTransitions(tree, queries, limit), want,
                   "limit " + std::to_string(limit));
    ExpectSamePlan(ReferencePlan(tree, queries, limit), want,
                   "reference, limit " + std::to_string(limit));
  }
  for (const Ast& q : queries) {
    auto got = MatchQuery(tree, q);
    auto want = MatchQuery(deep, q);
    ASSERT_TRUE(got.has_value() && want.has_value());
    EXPECT_EQ(reference::ExtractSelections(index, *got),
              reference::ExtractSelections(deep_index, *want));
  }

  // The session moves the widget at the second position only.
  auto session_of = [&](const DiffTree& t) {
    GeneratedInterface iface;
    iface.queries = queries;
    iface.difftree = t;
    const CostConstants constants;
    WidgetAssigner assigner(t, constants);
    iface.widgets = *assigner.Build(assigner.FirstAssignment());
    return InterfaceSession::Create(iface, constants);
  };
  auto shared = session_of(tree);
  auto unshared = session_of(deep);
  ASSERT_TRUE(shared.ok() && unshared.ok());
  ASSERT_TRUE(shared->SetAnyChoice(1, 1).ok());
  ASSERT_TRUE(unshared->SetAnyChoice(1, 1).ok());
  EXPECT_EQ(*shared->CurrentSql(), *unshared->CurrentSql());
  EXPECT_EQ(*shared->CurrentSql(), "select a from t where x = 1 and x = 2");
}

TEST(Plan, ConcurrentPlanningIsIdentical) {
  const std::vector<Ast> queries = *ParseQueries(LoadWorkload("sdss", 10)->log);
  const std::vector<DiffTree> states = PlanningStates(queries);
  std::vector<TransitionPlan> serial;
  for (const DiffTree& s : states) serial.push_back(PlanTransitions(s, queries, kParseLimit));
  constexpr int kThreads = 4;
  std::vector<std::vector<TransitionPlan>> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const DiffTree& s : states) {
        parallel[static_cast<size_t>(t)].push_back(PlanTransitions(s, queries, kParseLimit));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(parallel[static_cast<size_t>(t)].size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectSamePlan(parallel[static_cast<size_t>(t)][i], serial[i],
                     "thread " + std::to_string(t) + " state " + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// The assigner walks only the subtrees that hold a choice and takes its
// choice terms (and from them its range sliders' domains) from the
// delta-cost cache when it has one. Neither may change a built widget tree.

/// Counts `n`'s range sliders and checks every ANY's tabs against its node:
/// one panel per alternative.
void CheckPanels(const WidgetNode& n, const ChoiceIndex& index, const std::string& where,
                 size_t* sliders, size_t* tabs) {
  if (n.kind == WidgetKind::kRangeSlider) ++*sliders;
  if (n.kind == WidgetKind::kTabs) {
    ++*tabs;
    ASSERT_GE(n.choice_id, 0) << where;
    EXPECT_EQ(n.children.size(), index.node(static_cast<size_t>(n.choice_id))->children.size())
        << where << " choice " << n.choice_id;
  }
  for (const WidgetNode& c : n.children) CheckPanels(c, index, where, sliders, tabs);
}

TEST(Assigner, CachedAndFreshTermsBuildTheSameTrees) {
  const CostConstants constants;
  size_t sliders = 0;
  size_t tabs = 0;
  size_t built = 0;
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    std::vector<DiffTree> states = RolloutStates(queries, 31, 40, 0.8);
    for (DiffTree& s : RolloutStates(queries, 33, 40, 0.0)) states.push_back(std::move(s));
    DeltaCostCache delta;
    for (size_t i = 0; i < states.size(); ++i) {
      const DiffTree& s = states[i];
      const std::string where = std::string(workload) + " state " + std::to_string(i);
      const ChoiceIndex index(s);
      const WidgetAssigner cold(s, constants, &delta);
      const WidgetAssigner warm(s, constants, &delta);  // every term a cache hit
      const WidgetAssigner fresh(s, constants);
      ASSERT_EQ(warm.decisions().size(), fresh.decisions().size()) << where;
      ASSERT_EQ(cold.decisions().size(), fresh.decisions().size()) << where;
      Rng rng(HashCombine(31, i));
      std::vector<Assignment> assignments = {fresh.MinAppropriatenessAssignment()};
      for (int k = 0; k < 8; ++k) assignments.push_back(fresh.RandomAssignment(&rng));
      for (const Assignment& a : assignments) {
        Result<WidgetTree> want = fresh.Build(a);
        for (const WidgetAssigner* cached : {&cold, &warm}) {
          Result<WidgetTree> got = cached->Build(a);
          ASSERT_EQ(got.ok(), want.ok()) << where;
          if (got.ok()) EXPECT_EQ(WidgetTreeToJson(*got), WidgetTreeToJson(*want)) << where;
        }
        if (!want.ok()) continue;
        ++built;
        CheckPanels(want->root, index, where, &sliders, &tabs);
      }
    }
  }
  EXPECT_GT(built, 500u);
  EXPECT_GT(sliders, 0u);
  EXPECT_GT(tabs, 0u);
}

/// Which widget structures a filled layout holds, below widget `i`.
struct LayoutShapes {
  size_t range_sliders = 0;
  size_t tabs = 0;        ///< tabs with their panels
  size_t multi_rows = 0;  ///< adders over more than one inner widget
};

/// Counts the widgets below `i` that are not layouts; adds `i`'s shapes.
size_t CountShapes(const FlatLayout& layout, int i, LayoutShapes* shapes) {
  const FlatWidget& w = layout.widgets[static_cast<size_t>(i)];
  size_t below = 0;
  for (int k = w.first_child; k >= 0; k = layout.widgets[static_cast<size_t>(k)].next_sibling) {
    below += CountShapes(layout, k, shapes);
  }
  shapes->range_sliders += w.kind == WidgetKind::kRangeSlider ? 1 : 0;
  shapes->tabs += w.kind == WidgetKind::kTabs && w.num_children > 0 ? 1 : 0;
  shapes->multi_rows += w.kind == WidgetKind::kAdder && below > 1 ? 1 : 0;
  return below + (IsLayoutWidget(w.kind) ? 0 : 1);
}

/// The greedy assignment, the first one, `random` seeded draws and every
/// neighbour of the greedy one that differs in one decision.
std::vector<Assignment> PinAssignments(const WidgetAssigner& assigner, uint64_t seed,
                                       int random) {
  const Assignment greedy = assigner.MinAppropriatenessAssignment();
  std::vector<Assignment> out = {greedy, assigner.FirstAssignment()};
  Rng rng(seed);
  for (int k = 0; k < random; ++k) out.push_back(assigner.RandomAssignment(&rng));
  for (size_t d = 0; d < assigner.decisions().size(); ++d) {
    for (size_t o = 0; o < assigner.decisions()[d].options.size(); ++o) {
      if (static_cast<int>(o) == greedy.picks[d]) continue;
      Assignment next = greedy;
      next.picks[d] = static_cast<int>(o);
      out.push_back(std::move(next));
    }
  }
  return out;
}

TEST(Assigner, SlotPricedMEqualsLayoutM) {
  // WidgetAssigner::LayoutM prices M(.) from the picks, without a layout:
  // it must equal CostModel::LayoutM of the filled layout bit for bit (the
  // same terms, summed in the same order), and be +infinity exactly when
  // Fill fails.
  const EvalOptions opts = GeneratorOptions().MakeEvalOptions();
  const CostModel model(opts.constants, opts.screen, opts.parse_limit);
  FlatLayout layout;
  size_t compared = 0;
  size_t failed = 0;
  LayoutShapes shapes;
  size_t opt_groups = 0;
  auto check = [&](const WidgetAssigner& assigner, const Assignment& a,
                   const std::string& where) {
    const double m = assigner.LayoutM(a);
    if (!assigner.Fill(a, &layout).ok()) {
      ++failed;
      EXPECT_EQ(m, kInf) << where;
      return;
    }
    ++compared;
    EXPECT_EQ(m, model.LayoutM(layout)) << where;
    CountShapes(layout, layout.root, &shapes);
  };
  for (const char* workload : {"sdss", "flights", "synthetic"}) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    std::vector<DiffTree> states = RolloutStates(queries, 41, 40, 0.8);
    for (DiffTree& s : RolloutStates(queries, 43, 40, 0.0)) states.push_back(std::move(s));
    DeltaCostCache delta;
    for (size_t i = 0; i < states.size(); ++i) {
      const DiffTree& sealed = states[i];
      SealCheckingNormal(sealed);
      const DiffTree copy = DeepCopy(sealed);
      for (const DiffTree* s : {&sealed, &copy}) {
        const std::string where = std::string(workload) + " state " + std::to_string(i) +
                                  (s == &copy ? " (copy)" : " (sealed)");
        const WidgetAssigner assigner(*s, opts.constants, &delta);
        for (const DecisionPoint& d : assigner.decisions()) {
          opt_groups += d.type == DecisionType::kContainerLayout &&
                        d.node->kind == DKind::kOpt;
        }
        for (const Assignment& a : PinAssignments(assigner, HashCombine(41, i), 8)) {
          check(assigner, a, where);
        }
        Assignment longer = assigner.FirstAssignment();
        longer.picks.push_back(0);
        check(assigner, longer, where + ", one pick too many");
      }
    }
  }
  EXPECT_GT(compared, 10000u);
  EXPECT_GT(shapes.range_sliders, 0u);
  EXPECT_GT(shapes.tabs, 0u);
  EXPECT_GT(shapes.multi_rows, 0u);
  EXPECT_GT(opt_groups, 0u);

  // A hand-built BETWEEN under a WHERE, with its range slider and without.
  const DiffTree between(
      Symbol::kBetween, "",
      {DiffTree::FromAst(Col("u")),
       DiffTree::Any({DiffTree::FromAst(Num(0)), DiffTree::FromAst(Num(5))}),
       DiffTree::Any({DiffTree::FromAst(Num(15)), DiffTree::FromAst(Num(30))})});
  const DiffTree where_between(Symbol::kWhere, "", {between});
  const WidgetAssigner slider(where_between, opts.constants);
  const size_t ranges_before = shapes.range_sliders;
  for (const Assignment& a : PinAssignments(slider, 7, 8)) check(slider, a, "BETWEEN");
  EXPECT_GT(shapes.range_sliders, ranges_before);
  // An ANY over more alternatives with nested choices than tabs can hold
  // has no valid widget: no assignment fills, so none has an M(.).
  std::vector<DiffTree> alts;
  for (int k = 0; k <= static_cast<int>(opts.constants.tabs_max_options); ++k) {
    alts.push_back(DiffTree(Symbol::kWhere, "",
                            {DiffTree::Opt(DiffTree::FromAst(Num(k)))}));
  }
  const WidgetAssigner unviable(DiffTree::Any(std::move(alts)), opts.constants);
  ASSERT_FALSE(unviable.viable());
  const size_t failed_before = failed;
  check(unviable, unviable.FirstAssignment(), "non-viable ANY");
  EXPECT_EQ(failed, failed_before + 1);
}

}  // namespace
}  // namespace ifgen
