// Golden trajectories of serial MCTS and of the four baseline searchers:
// iteration-capped runs are pure functions of (log, options, seed), so their
// outcomes are pinned to exact values. A refactor of the search loop, the
// shared run machinery, the warm-start bridge or the cost memo that shifts
// one RNG draw or one sampled cost changes these numbers.
//
// When a deliberate behavior change moves them, the failure message prints
// the replacement row for the table.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/interface_generator.h"
#include "core/options.h"
#include "difftree/builder.h"
#include "search/baselines.h"
#include "search/mcts.h"
#include "sql/parser.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

struct Golden {
  const char* workload;
  uint64_t seed;
  size_t cap;
  double best_cost;
  uint64_t best_hash;
  size_t iterations;
  size_t states_expanded;
  size_t rollouts;
  size_t rollout_steps;
  size_t transposition_hits;
  size_t evaluations;
};

// Recorded from the serial searcher with default GeneratorOptions.
const Golden kGolden[] = {
    {"flights", 1, 30, 10.960000000000001, 0x1394c6cce46c5f4eULL, 30, 93, 93, 2949, 42, 3480},
    {"flights", 7, 30, 10.899999999999999, 0x54ab4570b5a0163bULL, 30, 94, 94, 3378, 42, 3672},
    {"sdss", 1, 20, 21.410000000000004, 0xf0cbbdb38a31b2bbULL, 20, 82, 82, 2537, 17, 3904},
    {"sdss", 7, 20, 21.410000000000004, 0xf0cbbdb38a31b2bbULL, 20, 77, 77, 2734, 18, 4408},
    {"synthetic", 1, 30, 15.620000000000001, 0x2f9317ae34258884ULL, 30, 117, 117, 4138, 83, 6336},
    {"synthetic", 7, 30, 15.620000000000001, 0x2f9317ae34258884ULL, 30, 115, 115, 4037, 79, 6624},
};

struct Fixture {
  std::vector<Ast> queries;
  DiffTree initial;
  GeneratorOptions options;
  RuleEngine rules;

  Fixture(const std::string& workload, uint64_t seed, size_t cap,
          bool state_keyed = false)
      : rules(GeneratorOptions().rules) {
    queries = *ParseQueries(LoadWorkload(workload, 10)->log);
    initial = *BuildInitialTree(queries);
    options.search.time_budget_ms = 0;
    options.search.max_iterations = cap;
    options.search.seed = seed;
    options.experience = state_keyed;
  }
};

std::string Row(const Golden& g, const SearchResult& r, size_t evaluations) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %" PRIu64 ", %zu, %.17g, 0x%016" PRIx64
                "ULL, %zu, %zu, %zu, %zu, %zu, %zu},",
                g.workload, g.seed, g.cap, r.best_cost, r.best_tree.CanonicalHash(),
                r.stats.iterations, r.stats.states_expanded, r.stats.rollouts,
                r.stats.rollout_steps, r.stats.transposition_hits, evaluations);
  return buf;
}

TEST(GoldenSearch, SerialTrajectoriesArePinned) {
  for (const Golden& g : kGolden) {
    Fixture f(g.workload, g.seed, g.cap);
    StateEvaluator eval(f.options.MakeEvalOptions(), f.queries);
    MctsSearcher searcher(&f.rules, &eval, f.options.search);
    auto r = searcher.Run(f.initial);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::string row = Row(g, *r, eval.evaluations());
    EXPECT_EQ(r->best_cost, g.best_cost) << row;
    EXPECT_EQ(r->best_tree.CanonicalHash(), g.best_hash) << row;
    EXPECT_EQ(r->stats.iterations, g.iterations) << row;
    EXPECT_EQ(r->stats.states_expanded, g.states_expanded) << row;
    EXPECT_EQ(r->stats.rollouts, g.rollouts) << row;
    EXPECT_EQ(r->stats.rollout_steps, g.rollout_steps) << row;
    EXPECT_EQ(r->stats.transposition_hits, g.transposition_hits) << row;
    EXPECT_EQ(eval.evaluations(), g.evaluations) << row;
  }
}

/// Seed entries for the warm-started arm: the initial state and its first
/// rule-application successors with their true state-keyed costs, carrying
/// visit counts of 0, 3 and 20 (the last one above the root-visit cap).
std::vector<TtSeedEntry> WarmSeed(const Fixture& f) {
  StateEvaluator oracle(f.options.MakeEvalOptions(), f.queries);
  Rng unused(0);
  std::vector<TtSeedEntry> seed;
  seed.push_back({f.initial.CanonicalHash(), oracle.SampleCost(f.initial, &unused), 0});
  const uint64_t visits[] = {0, 3, 20};
  for (const RuleApplication& app : f.rules.EnumerateApplications(f.initial)) {
    auto child = f.rules.Apply(f.initial, app);
    if (!child.ok()) continue;
    seed.push_back({child->CanonicalHash(), oracle.SampleCost(*child, &unused),
                    visits[seed.size() % 3]});
    if (seed.size() == 10) break;
  }
  return seed;
}

void AttachWarmStart(SearchOptions* opts, std::vector<TtSeedEntry> seed) {
  opts->warm_start = std::make_shared<WarmStart>();
  opts->warm_start->experience_seed = std::move(seed);
}

TEST(GoldenSearch, WarmStartedSerialTrajectoryIsPinned) {
  const Golden g = {"flights", 3, 30, 10.960000000000001, 0x1394c6cce46c5f4eULL,
                    30, 98, 98, 2993, 45, 3616};
  const size_t root_seeded = 2;
  const size_t max_evaluations = 3616;
  Fixture f(g.workload, g.seed, g.cap, /*state_keyed=*/true);
  AttachWarmStart(&f.options.search, WarmSeed(f));
  StateEvaluator eval(f.options.MakeEvalOptions(), f.queries);
  MctsSearcher searcher(&f.rules, &eval, f.options.search);
  auto r = searcher.Run(f.initial);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string row = Row(g, *r, eval.evaluations()) +
                          " root_seeded=" + std::to_string(r->stats.root_seeded);
  EXPECT_EQ(r->best_cost, g.best_cost) << row;
  EXPECT_EQ(r->best_tree.CanonicalHash(), g.best_hash) << row;
  EXPECT_EQ(r->stats.iterations, g.iterations) << row;
  EXPECT_EQ(r->stats.states_expanded, g.states_expanded) << row;
  EXPECT_EQ(r->stats.rollouts, g.rollouts) << row;
  EXPECT_EQ(r->stats.rollout_steps, g.rollout_steps) << row;
  EXPECT_EQ(r->stats.transposition_hits, g.transposition_hits) << row;
  EXPECT_EQ(r->stats.root_seeded, root_seeded) << row;
  // Seeds may save evaluations, never add them.
  EXPECT_LE(eval.evaluations(), max_evaluations) << row;
}

struct BaselineGolden {
  const char* workload;
  const char* algorithm;
  /// max_iterations for random/greedy/beam; exhaustive_max_states for
  /// exhaustive, which runs with no iteration cap.
  size_t cap;
  double best_cost;
  uint64_t best_hash;
  size_t iterations;
  size_t states_expanded;
  size_t rollouts;
  size_t rollout_steps;
  size_t transposition_hits;
  size_t evaluations;
  size_t trace_len;
  const char* stop_reason;
  /// Exhaustive only: visited_states() and complete().
  size_t visited;
  bool complete;
};

// Recorded with default GeneratorOptions, seed 1, time_budget_ms 0. Greedy
// ends at its first local optimum, so its rows count one climb.
const BaselineGolden kBaselineGolden[] = {
    {"flights", "random", 30, 11.999999999999998, 0xc48f3ea19d73a5d0ULL, 30, 0, 30, 417, 0, 384, 6, "iterations", 0, false},
    {"flights", "greedy", 20, 10.960000000000001, 0x1394c6cce46c5f4eULL, 5, 21, 0, 0, 0, 168, 5, "exhausted", 0, false},
    {"flights", "beam", 6, 10.960000000000001, 0x1394c6cce46c5f4eULL, 6, 152, 0, 0, 48, 1224, 5, "iterations", 0, false},
    {"flights", "exhaustive", 300, 10.960000000000001, 0x1394c6cce46c5f4eULL, 53, 299, 0, 0, 163, 2400, 5, "exhausted", 300, false},
    {"sdss", "random", 30, 22.190000000000001, 0xeb1e1cfc01af3981ULL, 30, 0, 30, 746, 0, 1008, 3, "iterations", 0, false},
    {"sdss", "greedy", 20, 26.68, 0xa8e103c106b7f49fULL, 1, 3, 0, 0, 0, 32, 1, "exhausted", 0, false},
    {"sdss", "beam", 6, 21.140000000000001, 0x20332403632cc3b3ULL, 6, 172, 0, 0, 70, 1384, 6, "iterations", 0, false},
    {"sdss", "exhaustive", 300, 26.68, 0xa8e103c106b7f49fULL, 31, 299, 0, 0, 71, 2400, 1, "exhausted", 300, false},
    {"synthetic", "random", 30, 15.620000000000001, 0x2f9317ae34258884ULL, 30, 0, 30, 906, 0, 1216, 2, "iterations", 0, false},
    {"synthetic", "greedy", 20, 15.620000000000001, 0x4de29ad1d8ac3c9aULL, 2, 4, 0, 0, 0, 32, 2, "exhausted", 0, false},
    {"synthetic", "beam", 6, 15.620000000000001, 0x4de29ad1d8ac3c9aULL, 6, 177, 0, 0, 75, 1424, 2, "iterations", 0, false},
    {"synthetic", "exhaustive", 300, 15.620000000000001, 0x4de29ad1d8ac3c9aULL, 29, 299, 0, 0, 79, 2400, 2, "exhausted", 300, false},
};

Algorithm BaselineNamed(const std::string& name) {
  for (Algorithm a : {Algorithm::kRandom, Algorithm::kGreedy, Algorithm::kBeam}) {
    if (AlgorithmName(a) == name) return a;
  }
  return Algorithm::kExhaustive;
}

TEST(GoldenSearch, BaselineTrajectoriesArePinned) {
  for (const BaselineGolden& g : kBaselineGolden) {
    const bool exhaustive = std::string(g.algorithm) == "exhaustive";
    Fixture f(g.workload, 1, exhaustive ? 0 : g.cap);
    if (exhaustive) f.options.search.exhaustive_max_states = g.cap;
    StateEvaluator eval(f.options.MakeEvalOptions(), f.queries);
    std::unique_ptr<Searcher> searcher =
        MakeSearcher(BaselineNamed(g.algorithm), &f.rules, &eval, f.options.search);
    auto r = searcher->Run(f.initial);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    size_t visited = 0;
    bool complete = false;
    if (exhaustive) {
      const auto* ex = static_cast<const ExhaustiveSearcher*>(searcher.get());
      visited = ex->visited_states();
      complete = ex->complete();
    }
    const std::string reason(StopReasonName(r->stats.stop_reason));
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"%s\", \"%s\", %zu, %.17g, 0x%016" PRIx64
                  "ULL, %zu, %zu, %zu, %zu, %zu, %zu, %zu, \"%s\", %zu, %s},",
                  g.workload, g.algorithm, g.cap, r->best_cost,
                  r->best_tree.CanonicalHash(), r->stats.iterations,
                  r->stats.states_expanded, r->stats.rollouts, r->stats.rollout_steps,
                  r->stats.transposition_hits, eval.evaluations(),
                  r->stats.trace.size(), reason.c_str(), visited,
                  complete ? "true" : "false");
    const std::string row = buf;
    EXPECT_EQ(r->best_cost, g.best_cost) << row;
    EXPECT_EQ(r->best_tree.CanonicalHash(), g.best_hash) << row;
    EXPECT_EQ(r->stats.iterations, g.iterations) << row;
    EXPECT_EQ(r->stats.states_expanded, g.states_expanded) << row;
    EXPECT_EQ(r->stats.rollouts, g.rollouts) << row;
    EXPECT_EQ(r->stats.rollout_steps, g.rollout_steps) << row;
    EXPECT_EQ(r->stats.transposition_hits, g.transposition_hits) << row;
    EXPECT_EQ(eval.evaluations(), g.evaluations) << row;
    EXPECT_EQ(r->stats.trace.size(), g.trace_len) << row;
    EXPECT_EQ(reason, g.stop_reason) << row;
    EXPECT_EQ(visited, g.visited) << row;
    EXPECT_EQ(complete, g.complete) << row;
  }
}

}  // namespace
}  // namespace ifgen
