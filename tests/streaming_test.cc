#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

#include "core/interface_generator.h"
#include "difftree/builder.h"
#include "obs/trace.h"
#include "runtime/service.h"
#include "search/mcts.h"
#include "search/progress.h"
#include "search/timeman.h"
#include "sql/parser.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

std::vector<Ast> SmallLog() {
  return *ParseQueries(std::vector<std::string>{
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
  });
}

/// First `n` queries of a registered workload's log, parsed. The streaming
/// differential sweeps real logs (flights/sdss/synthetic), not just the toy
/// log, because publish cadence depends on how often the best improves.
std::vector<Ast> WorkloadLog(const std::string& name, size_t n) {
  auto bundle = LoadWorkload(name);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  std::vector<std::string> sqls(bundle->log.begin(),
                                bundle->log.begin() +
                                    std::min(n, bundle->log.size()));
  auto parsed = ParseQueries(sqls);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
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

/// The published sequence must be the anytime contract: one publish per
/// entry of the best-so-far trace, whose costs strictly decrease, and the
/// latest event must be exactly the last trace entry and the returned
/// result.
void CheckPublishedSequence(const ProgressSink& sink, const SearchResult& r) {
  const std::vector<BestTrace>& trace = r.stats.trace;
  ASSERT_FALSE(trace.empty()) << "search published no improvements";
  EXPECT_EQ(sink.version(), trace.size()) << "one publish per trace entry";
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LT(trace[i].cost, trace[i - 1].cost) << "costs must strictly decrease";
  }
  auto latest = sink.Latest();
  EXPECT_EQ(latest.version, sink.version());
  EXPECT_EQ(latest.cost, trace.back().cost);
  EXPECT_EQ(latest.iteration, trace.back().iteration);
  EXPECT_EQ(latest.ms, trace.back().ms);
  EXPECT_EQ(latest.cost, r.best_cost)
      << "final published cost must equal the returned best cost";
  ASSERT_NE(latest.tree, nullptr);
  EXPECT_EQ(*latest.tree, r.best_tree)
      << "final published tree must equal the returned best tree";
}

// ----------------------------------------------------- streaming differential

TEST(Streaming, SerialPublishesStrictlyImprovingSequencePerWorkload) {
  for (const std::string& name : {"flights", "sdss", "synthetic"}) {
    SCOPED_TRACE(name);
    auto queries = WorkloadLog(name, 6);
    RuleEngine rules;
    DiffTree initial = *BuildInitialTree(queries);
    StateEvaluator eval(SmallEvalOptions(), queries);
    SearchOptions opts = FastOptions(30);
    auto sink = std::make_shared<ProgressSink>();
    opts.progress = sink;
    MctsSearcher searcher(&rules, &eval, opts);
    auto r = searcher.Run(initial);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    CheckPublishedSequence(*sink, *r);
    EXPECT_EQ(r->stats.stop_reason, StopReason::kIterations);
  }
}

TEST(Streaming, RootParallelPublishesStrictlyImprovingSequence) {
  auto queries = WorkloadLog("flights", 6);
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator eval(SmallEvalOptions(), queries);
  SearchOptions opts = FastOptions(30);
  auto sink = std::make_shared<ProgressSink>();
  opts.progress = sink;
  ParallelOptions popts;
  popts.num_threads = 3;
  MctsSearcher searcher(&rules, &eval, opts, popts);
  auto r = searcher.Run(initial);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  CheckPublishedSequence(*sink, *r);
}

/// The no-deadline differential pin: with time control off, attaching the
/// streaming machinery (sink + stop handle) must leave the serial search
/// bit-identical to a plain run — publishing consumes no RNG draws and the
/// SearchRun's loop guard stays inert.
TEST(Streaming, SinkAndStopWiringDoesNotPerturbSerialSearch) {
  for (const std::string& name : {"flights", "sdss", "synthetic"}) {
    SCOPED_TRACE(name);
    auto queries = WorkloadLog(name, 6);
    RuleEngine rules;
    DiffTree initial = *BuildInitialTree(queries);

    // Fresh evaluator per run: a warm cache would change RNG consumption.
    StateEvaluator plain_eval(SmallEvalOptions(), queries);
    MctsSearcher plain(&rules, &plain_eval, FastOptions(25));
    auto plain_result = plain.Run(initial);
    ASSERT_TRUE(plain_result.ok());

    StateEvaluator wired_eval(SmallEvalOptions(), queries);
    SearchOptions wired_opts = FastOptions(25);
    wired_opts.progress = std::make_shared<ProgressSink>();
    wired_opts.stop = std::make_shared<StopHandle>();
    MctsSearcher wired(&rules, &wired_eval, wired_opts);
    auto wired_result = wired.Run(initial);
    ASSERT_TRUE(wired_result.ok());

    EXPECT_EQ(wired_result->best_cost, plain_result->best_cost);
    EXPECT_EQ(wired_result->best_tree, plain_result->best_tree);
    EXPECT_EQ(wired_result->stats.iterations, plain_result->stats.iterations);
    EXPECT_EQ(wired_result->stats.rollouts, plain_result->stats.rollouts);
    EXPECT_EQ(wired_result->stats.states_expanded,
              plain_result->stats.states_expanded);
    EXPECT_EQ(wired_eval.evaluations(), plain_eval.evaluations());
    EXPECT_EQ(wired_result->stats.stop_reason, plain_result->stats.stop_reason);
  }
}

// ------------------------------------------------- baseline control paths

/// The four baselines run through the same SearchRun as MCTS; these pin the
/// control paths they share with it: target-cost stops, a pre-tripped stop
/// handle, and the progress sink.
const Algorithm kBaselines[] = {Algorithm::kRandom, Algorithm::kGreedy,
                                Algorithm::kBeam, Algorithm::kExhaustive};
/// MCTS and the four baselines.
const Algorithm kSearchers[] = {Algorithm::kMcts, Algorithm::kRandom,
                                Algorithm::kGreedy, Algorithm::kBeam,
                                Algorithm::kExhaustive};

/// Iteration-capped options under which every searcher improves on the
/// initial state of the flights log and keeps running afterwards.
SearchOptions BaselineOptions() {
  SearchOptions o = FastOptions(30);
  o.seed = 1;
  o.beam_width = 4;
  o.exhaustive_max_states = 300;
  return o;
}

TEST(SearchControl, TargetCostStopsInTheIterationThatReachesIt) {
  auto queries = WorkloadLog("flights", 6);
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  for (Algorithm algorithm : kSearchers) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    StateEvaluator free_eval(SmallEvalOptions(), queries);
    auto free_run =
        MakeSearcher(algorithm, &rules, &free_eval, BaselineOptions())->Run(initial);
    ASSERT_TRUE(free_run.ok());
    // The first improvement on the initial state is the target; the
    // unstopped run must go on long enough after it for the stop to show.
    const auto& trace = free_run->stats.trace;
    ASSERT_GE(trace.size(), 2u);
    ASSERT_GT(free_run->stats.iterations, trace[1].iteration + 2);
    const double target = trace[1].cost;

    StateEvaluator eval(SmallEvalOptions(), queries);
    SearchOptions opts = BaselineOptions();
    opts.time_control.target_cost = target;
    auto r = MakeSearcher(algorithm, &rules, &eval, opts)->Run(initial);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.stop_reason, StopReason::kTargetCost);
    EXPECT_LE(r->best_cost, target);
    size_t reached = 0;
    for (const BestTrace& t : r->stats.trace) {
      if (t.cost <= target) {
        reached = t.iteration;
        break;
      }
    }
    EXPECT_GT(reached, 0u);
    EXPECT_EQ(r->stats.iterations, reached)
        << "the run must stop in the iteration that reached the target";
  }
}

TEST(BaselineControl, PreTrippedStopCancelsBeforeTheFirstIteration) {
  auto queries = WorkloadLog("flights", 6);
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  for (Algorithm algorithm : kBaselines) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    StateEvaluator eval(SmallEvalOptions(), queries);
    SearchOptions opts = BaselineOptions();
    opts.stop = std::make_shared<StopHandle>();
    opts.stop->RequestStop(StopReason::kCancelled);
    auto r = MakeSearcher(algorithm, &rules, &eval, opts)->Run(initial);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.stop_reason, StopReason::kCancelled);
    EXPECT_EQ(r->stats.iterations, 0u);
    EXPECT_EQ(r->best_tree, initial);
    EXPECT_EQ(r->best_cost, r->stats.initial_cost);
  }
}

TEST(BaselineControl, SinkSeesTheTraceAsConsecutiveImprovements) {
  auto queries = WorkloadLog("flights", 6);
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  for (Algorithm algorithm : kBaselines) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    StateEvaluator eval(SmallEvalOptions(), queries);
    SearchOptions opts = BaselineOptions();
    auto sink = std::make_shared<ProgressSink>();
    opts.progress = sink;
    auto r = MakeSearcher(algorithm, &rules, &eval, opts)->Run(initial);
    ASSERT_TRUE(r.ok());
    CheckPublishedSequence(*sink, *r);
  }
}

// ------------------------------------------------------------- ProgressSink

TEST(ProgressSink, WaitVersionAboveWakesOnPublish) {
  auto queries = SmallLog();
  DiffTree tree = *BuildInitialTree(queries);
  ProgressSink sink;
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.Publish(tree, 1.0, 1, 20);
  });
  const uint64_t v = sink.WaitVersionAbove(0, 5000);
  publisher.join();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(sink.Latest().cost, 1.0);
}

TEST(ProgressSink, WaitTimesOutWithoutPublish) {
  ProgressSink sink;
  EXPECT_EQ(sink.WaitVersionAbove(0, 10), 0u);
  EXPECT_EQ(sink.WaitVersionAbove(0, 0), 0u);  // wait_ms <= 0: immediate
}

TEST(ProgressSink, CloseWakesWaitersAndDropsLatePublishes) {
  auto queries = SmallLog();
  DiffTree tree = *BuildInitialTree(queries);
  ProgressSink sink;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sink.Close();
  });
  EXPECT_EQ(sink.WaitVersionAbove(0, 5000), 0u);
  closer.join();
  EXPECT_TRUE(sink.closed());
  sink.Publish(tree, 1.0, 1, 1);  // late straggler: ignored
  EXPECT_EQ(sink.version(), 0u);
}

// ------------------------------------------------------ time control units

TEST(TimeControl, SearchSliceReservesFinalPhaseHeadroom) {
  TimeControlOptions tc;
  EXPECT_EQ(tc.SearchSliceMs(), 0) << "no deadline: no slice";
  tc.deadline_ms = 100;
  EXPECT_EQ(tc.SearchSliceMs(), 85);
  tc.deadline_ms = 1;
  EXPECT_GE(tc.SearchSliceMs(), 1) << "slice never rounds down to zero";
}

TEST(TimeControl, EffectiveBudgetIsIdentityWithTimeControlOff) {
  TimeControlOptions off;
  EXPECT_EQ(EffectiveSearchBudgetMs(0, off), 0);
  EXPECT_EQ(EffectiveSearchBudgetMs(250, off), 250);

  TimeControlOptions tc;
  tc.deadline_ms = 100;  // slice 85 with the 0.15 headroom
  EXPECT_EQ(EffectiveSearchBudgetMs(0, tc), 85) << "deadline alone binds";
  EXPECT_EQ(EffectiveSearchBudgetMs(40, tc), 40) << "tighter budget wins";
  EXPECT_EQ(EffectiveSearchBudgetMs(500, tc), 85) << "tighter deadline wins";
}

TEST(TimeControl, OfferLatchesTargetCost) {
  auto queries = SmallLog();
  DiffTree tree = *BuildInitialTree(queries);
  SearchOptions opts = FastOptions(10);
  opts.time_control.target_cost = 5.0;
  SearchRun run(opts);
  EXPECT_TRUE(run.Offer(tree, 9.0, &run.stats()));
  EXPECT_FALSE(run.Stopped());
  EXPECT_TRUE(run.Offer(tree, 5.0, &run.stats()));
  EXPECT_TRUE(run.Stopped()) << "a best at the target stops the run at once";
  EXPECT_FALSE(run.Next(&run.stats()));
  EXPECT_EQ(run.Finish().stats.stop_reason, StopReason::kTargetCost);
}

TEST(TimeControl, PlateauFiresIffNoImprovementWindow) {
  // Steady improvement: never fires, no matter how long.
  for (int64_t ms = 10; ms <= 400; ms += 10) {
    ASSERT_FALSE(PlateauReached(0.5, ms, ms)) << "at " << ms;
  }
  // Improvement stops at 400ms. Window = max(50, 0.5 * elapsed). At 500ms
  // the stall is 100ms < 250; at 810ms the stall is 410 >= 405 — fires.
  EXPECT_FALSE(PlateauReached(0.5, 500, 400));
  EXPECT_FALSE(PlateauReached(0.5, 790, 400));
  EXPECT_TRUE(PlateauReached(0.5, 810, 400));
  EXPECT_FALSE(PlateauReached(0.0, 810, 400)) << "fraction 0 = off";
}

TEST(TimeControl, PlateauMinWindowBlocksInstantStops) {
  // 10ms in with no improvement yet: 10 < max(50, 9) — must not fire.
  EXPECT_FALSE(PlateauReached(0.9, 10, 0));
  EXPECT_TRUE(PlateauReached(0.9, 50, 0));
}

TEST(TimeControl, StopHandleFirstReasonWins) {
  StopHandle stop;
  stop.RequestStop(StopReason::kCancelled);
  stop.RequestStop(StopReason::kDeadline);
  EXPECT_TRUE(stop.stop_requested());
  EXPECT_EQ(stop.reason(), StopReason::kCancelled);
}

TEST(TimeControl, ResolveStopReasonPrecedence) {
  TimeControlOptions off;
  // Latched handle wins over everything.
  StopHandle cancelled;
  cancelled.RequestStop(StopReason::kCancelled);
  EXPECT_EQ(ResolveStopReason(&cancelled, true, 100, off, 50, 50),
            StopReason::kCancelled);
  // Expired deadline with no time control: the plain budget.
  EXPECT_EQ(ResolveStopReason(nullptr, true, 100, off, 10, 50),
            StopReason::kBudget);
  // Expired deadline where the deadline slice was the binding bound.
  TimeControlOptions tc;
  tc.deadline_ms = 50;
  EXPECT_EQ(ResolveStopReason(nullptr, true, 0, tc, 10, 50),
            StopReason::kDeadline);
  // Iteration cap.
  EXPECT_EQ(ResolveStopReason(nullptr, false, 0, off, 50, 50),
            StopReason::kIterations);
  // Nothing bound: the loop ran out of work.
  EXPECT_EQ(ResolveStopReason(nullptr, false, 0, off, 10, 50),
            StopReason::kExhausted);
}

/// Property fuzz: for any random (searcher, deadline, target_cost,
/// plateau) config, a real search always terminates with a definite stop
/// reason and never exceeds its iteration cap.
TEST(TimeControl, PropertyFuzzAlwaysTerminatesWithReason) {
  auto queries = SmallLog();
  RuleEngine rules;
  DiffTree initial = *BuildInitialTree(queries);
  Rng cost_rng(1);
  const double initial_cost =
      StateEvaluator(SmallEvalOptions(), queries).SampleCost(initial, &cost_rng);
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int64_t> deadline_dist(1, 60);
  std::uniform_real_distribution<double> target_dist(0.0, 1.0);
  std::uniform_real_distribution<double> plateau_dist(0.0, 1.0);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const Algorithm algorithm = kSearchers[rng() % 5];
    SearchOptions opts = FastOptions(1 + rng() % 64);
    opts.seed = rng();
    if (coin(rng)) opts.time_control.deadline_ms = deadline_dist(rng);
    if (coin(rng)) opts.time_control.target_cost = initial_cost * target_dist(rng);
    if (coin(rng)) opts.time_control.plateau_fraction = plateau_dist(rng);
    SCOPED_TRACE(AlgorithmName(algorithm));

    StateEvaluator eval(SmallEvalOptions(), queries);
    auto r = MakeSearcher(algorithm, &rules, &eval, opts)->Run(initial);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LE(r->stats.iterations, opts.max_iterations);
    EXPECT_NE(r->stats.stop_reason, StopReason::kNone)
        << "every terminated search must report why it stopped";
    if (r->stats.stop_reason == StopReason::kTargetCost) {
      EXPECT_LE(r->best_cost, opts.time_control.target_cost);
    }
  }
}

// ------------------------------------------------- service-level streaming

JobSpec StreamingJob(uint64_t seed, size_t max_iterations,
                     int64_t time_budget_ms) {
  JobSpec spec;
  spec.sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
      "select a from t where y between 0 and 4",
  };
  spec.options.screen = {80, 24};
  spec.options.search.time_budget_ms = time_budget_ms;
  spec.options.search.max_iterations = max_iterations;
  spec.options.search.seed = seed;
  return spec;
}

TEST(StreamingService, DeadlineJobReturnsValidInterfaceAtDeadline) {
  auto bundle = LoadWorkload("flights");
  ASSERT_TRUE(bundle.ok());
  JobSpec spec;
  spec.sqls.assign(bundle->log.begin(),
                   bundle->log.begin() + std::min<size_t>(6, bundle->log.size()));
  spec.options.screen = {80, 24};
  spec.options.search.time_budget_ms = 0;
  spec.options.search.max_iterations = 0;  // the deadline is the only bound
  spec.options.search.seed = 7;
  spec.options.search.time_control.deadline_ms = 50;

  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  auto id = service.SubmitJob(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kDone);
  ASSERT_NE(info->result, nullptr);
  EXPECT_TRUE(std::isfinite(info->result->cost.total()));
  // The search phase stops at the deadline slice (or exhausts the space
  // first on a small log); it must not run long past it.
  EXPECT_TRUE(info->result->stats.stop_reason == StopReason::kDeadline ||
              info->result->stats.stop_reason == StopReason::kExhausted)
      << StopReasonName(info->result->stats.stop_reason);
  EXPECT_LT(info->run_ms, 5000) << "50ms deadline must not run for seconds";
}

TEST(StreamingService, ProgressVersionsStrictlyIncreaseToTerminal) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  auto id = service.SubmitJob(StreamingJob(3, 300, 0));
  ASSERT_TRUE(id.ok());

  uint64_t last_seen = 0;
  double last_cost = std::numeric_limits<double>::infinity();
  int frames = 0;
  while (true) {
    auto p = service.WaitJob(*id, 2000, last_seen);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    if (p->progress.version > last_seen) {
      EXPECT_LT(p->progress.cost, last_cost) << "best cost strictly improves";
      ASSERT_NE(p->progress.tree, nullptr);
      last_seen = p->progress.version;
      last_cost = p->progress.cost;
      ++frames;
    }
    if (p->terminal()) break;
  }
  EXPECT_GE(frames, 1) << "at least the first best-so-far must be published";

  // Terminal frame agrees with the job result.
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kDone);
  ASSERT_NE(info->result, nullptr);
  EXPECT_EQ(info->result->cost.total(), last_cost)
      << "final published cost must equal the finished result's";
}

TEST(StreamingService, ProgressForUnknownJobIsNotFound) {
  GenerationService service(GenerationService::Options{});
  auto p = service.WaitJob(999, 0, 0);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
}

TEST(StreamingService, CancelRunningJobYieldsPartialResult) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  // Effectively unbounded iterations; the 10s budget is only a backstop so
  // a broken cancel path fails the test instead of hanging it.
  auto id = service.SubmitJob(StreamingJob(5, 100000000, 10000));
  ASSERT_TRUE(id.ok());

  // Wait until the job is demonstrably mid-run: at least one best-so-far
  // has been published.
  auto p = service.WaitJob(*id, 5000, 0);
  ASSERT_TRUE(p.ok());
  ASSERT_GE(p->progress.version, 1u) << "job never started improving";

  auto cancel = service.CancelJob(*id);
  ASSERT_TRUE(cancel.ok());
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kCancelled);
  EXPECT_EQ(info->error.code(), StatusCode::kCancelled);
  // Best-so-far partial must ride along.
  ASSERT_NE(info->result, nullptr);
  EXPECT_TRUE(std::isfinite(info->result->cost.total()));
  EXPECT_EQ(info->result->stats.stop_reason, StopReason::kCancelled);

  // The terminal snapshot carries the partial's best-so-far.
  EXPECT_EQ(info->progress.version, info->result->stats.trace.size());
  EXPECT_EQ(info->progress.cost, info->result->stats.trace.back().cost);
}

TEST(StreamingService, CancelledJobSkipsResultCache) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  JobSpec spec = StreamingJob(6, 100000000, 10000);
  auto id = service.SubmitJob(spec);
  ASSERT_TRUE(id.ok());
  auto p = service.WaitJob(*id, 5000, 0);
  ASSERT_TRUE(p.ok());
  ASSERT_GE(p->progress.version, 1u);
  ASSERT_TRUE(service.CancelJob(*id).ok());
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kCancelled);

  // Resubmitting the identical spec must run fresh, not replay the
  // cancelled partial from the cache.
  JobSpec again = StreamingJob(6, 20, 0);
  auto id2 = service.SubmitJob(again);
  ASSERT_TRUE(id2.ok());
  auto info2 = service.WaitJob(*id2);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->state, JobState::kDone);
  EXPECT_FALSE(info2->cache_hit);
}

/// Concurrency smoke for TSan: progress pollers, a canceller, and the worker
/// all race on one job's sink/stop/record.
TEST(StreamingService, ConcurrentCancelAndProgressPolling) {
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto id = service.SubmitJob(StreamingJob(9, 100000000, 10000));
  ASSERT_TRUE(id.ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&, t] {
      uint64_t last_seen = 0;
      double last_cost = std::numeric_limits<double>::infinity();
      while (!done.load(std::memory_order_relaxed)) {
        auto p = service.WaitJob(*id, 20, last_seen);
        if (!p.ok()) break;
        if (p->progress.version > last_seen) {
          // Each poller independently observes a strictly improving stream.
          EXPECT_LT(p->progress.cost, last_cost) << "poller " << t;
          last_seen = p->progress.version;
          last_cost = p->progress.cost;
        }
        if (p->terminal()) break;
      }
    });
  }
  std::thread canceller([&] {
    auto p = service.WaitJob(*id, 5000, 0);
    ASSERT_TRUE(p.ok());
    service.CancelJob(*id);
  });
  canceller.join();
  auto info = service.WaitJob(*id);
  done.store(true, std::memory_order_relaxed);
  for (auto& th : pollers) th.join();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->terminal());
}

/// Tree 0 of a root-parallel job runs on the job's own worker thread, so
/// the job-private trace captures its search spans.
TEST(StreamingService, RootParallelJobTraceHoldsTreeSpans) {
  const bool tracing_before = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  JobSpec spec = StreamingJob(5, 8, 0);
  spec.options.parallel.num_threads = 2;
  auto id = service.SubmitJob(std::move(spec));
  ASSERT_TRUE(id.ok());
  auto info = service.WaitJob(*id);
  obs::SetTracingEnabled(tracing_before);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->state, JobState::kDone) << info->error.ToString();
  ASSERT_NE(info->trace, nullptr);
  size_t tree_spans = 0;
  for (const obs::TraceEvent& e : info->trace->Events()) {
    if (std::string_view(e.name) == "mcts.tree") ++tree_spans;
  }
  EXPECT_GE(tree_spans, 1u);
}

}  // namespace
}  // namespace ifgen
