#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "runtime/service.h"
#include "runtime/thread_pool.h"
#include "runtime/tt.h"
#include "sql/parser.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor drains the queue before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, OneWorkerRunsTasksInSubmissionOrder) {
  std::vector<int> order;  // only the one worker writes it
  {
    ThreadPool pool(1);
    // Hold the worker so every later task is queued before any runs.
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.Submit([released] { released.wait(); });
    for (int i = 0; i < 16; ++i) pool.Submit([&order, i] { order.push_back(i); });
    release.set_value();
  }
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

// ------------------------------------------------- TranspositionTable

TEST(TranspositionTable, VisitReportsFirstInsertion) {
  TranspositionTable tt(4);
  EXPECT_TRUE(tt.Visit(42));
  EXPECT_FALSE(tt.Visit(42));
  EXPECT_TRUE(tt.Visit(43));
  EXPECT_EQ(tt.transposition_hits(), 1u);
  EXPECT_EQ(tt.size(), 2u);
}

TEST(TranspositionTable, ConcurrentVisitsInsertEachKeyExactlyOnce) {
  constexpr size_t kThreads = 8;
  constexpr size_t kKeys = 512;
  TranspositionTable tt(16);
  std::vector<std::atomic<int>> first_visits(kKeys);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tt, &first_visits] {
      for (size_t k = 0; k < kKeys; ++k) {
        // Spread keys over shards: the canonical hashes this table is keyed
        // by are pre-mixed, so a multiplicative spread mimics real keys.
        uint64_t key = k * 0x9e3779b97f4a7c15ULL + 1;
        if (tt.Visit(key)) first_visits[k].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(first_visits[k].load(), 1) << "key " << k;
  }
  EXPECT_EQ(tt.size(), kKeys);
  EXPECT_EQ(tt.transposition_hits(), kKeys * (kThreads - 1));
}

TEST(TranspositionTable, KeysAreAscending) {
  TranspositionTable tt(4);
  for (uint64_t key : {9, 3, 7, 3}) tt.Visit(key);
  EXPECT_EQ(tt.Keys(), (std::vector<uint64_t>{3, 7, 9}));
}

// ------------------------------------------------ StateEvaluator cost memo

std::vector<Ast> MemoLog() {
  return *ParseQueries(std::vector<std::string>{
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
  });
}

EvalOptions StateKeyedOptions() {
  EvalOptions e;
  e.screen = {80, 24};
  e.state_keyed_sampling = true;
  return e;
}

TEST(EvaluatorMemo, SeedFirstWriterWins) {
  StateEvaluator eval(StateKeyedOptions(), MemoLog());
  EXPECT_FALSE(eval.MemoCost(7).has_value());
  EXPECT_TRUE(eval.SeedCost(7, 3.5));
  EXPECT_FALSE(eval.SeedCost(7, 9.0));  // ignored: first writer wins
  ASSERT_TRUE(eval.MemoCost(7).has_value());
  EXPECT_DOUBLE_EQ(*eval.MemoCost(7), 3.5);
  // Non-finite seeds never land.
  EXPECT_FALSE(eval.SeedCost(8, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(eval.MemoCost(8).has_value());
}

TEST(EvaluatorMemo, SeededEntryAnswersSampleCostAndCountsAsSeededHit) {
  const std::vector<Ast> queries = MemoLog();
  const DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator eval(StateKeyedOptions(), queries);
  ASSERT_TRUE(eval.SeedCost(initial.CanonicalHash(), 1.25));
  Rng rng(1);
  EXPECT_EQ(eval.SampleCost(initial, &rng), 1.25);
  EXPECT_EQ(eval.cache_hits(), 1u);
  EXPECT_EQ(eval.seeded_hits(), 1u);
  EXPECT_EQ(eval.evaluations(), 0u);

  // A sampled entry stays put: a later seed for the same state is ignored,
  // and hits on it are not seeded hits.
  StateEvaluator cold(StateKeyedOptions(), queries);
  const double sampled = cold.SampleCost(initial, &rng);
  EXPECT_FALSE(cold.SeedCost(initial.CanonicalHash(), sampled - 1.0));
  EXPECT_EQ(cold.SampleCost(initial, &rng), sampled);
  EXPECT_EQ(cold.seeded_hits(), 0u);

  // With the memo off there is nowhere for a seed to land.
  EvalOptions off = StateKeyedOptions();
  off.cache_enabled = false;
  StateEvaluator uncached(off, queries);
  EXPECT_FALSE(uncached.SeedCost(initial.CanonicalHash(), 1.25));
}

TEST(EvaluatorMemo, ConcurrentSeedsAgreeAfterwards) {
  constexpr size_t kThreads = 8;
  StateEvaluator eval(StateKeyedOptions(), MemoLog());
  std::vector<std::thread> threads;
  std::vector<double> seen(kThreads, -1.0);
  std::atomic<int> landed{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&eval, &seen, &landed, t] {
      if (eval.SeedCost(99, static_cast<double>(t) + 1.0)) landed.fetch_add(1);
      seen[t] = *eval.MemoCost(99);
    });
  }
  for (auto& th : threads) th.join();
  // Exactly one writer won; every reader that looked afterwards saw the
  // winner (values never drift once stored).
  EXPECT_EQ(landed.load(), 1);
  const double winner = *eval.MemoCost(99);
  EXPECT_GE(winner, 1.0);
  EXPECT_LE(winner, static_cast<double>(kThreads));
  for (size_t t = 0; t < kThreads; ++t) EXPECT_DOUBLE_EQ(seen[t], winner);
}

// --------------------------------------------------- GenerationService

JobSpec SmallJob(uint64_t seed) {
  JobSpec spec;
  spec.sqls = {
      "select a from t where x between 1 and 5",
      "select b from t where x between 2 and 9",
      "select b from t",
  };
  spec.options.screen = {80, 24};
  spec.options.search.time_budget_ms = 0;  // iteration-capped: deterministic
  spec.options.search.max_iterations = 4;
  spec.options.search.seed = seed;
  return spec;
}

/// A job that runs until cancelled: the flights log does not exhaust its
/// search space, and the 10 s budget is only a backstop.
JobSpec LongJob(uint64_t seed) {
  JobSpec spec = SmallJob(seed);
  auto w = LoadWorkload("flights", /*rows=*/1);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  if (w.ok()) spec.sqls = w->log;
  spec.options.search.time_budget_ms = 10000;
  spec.options.search.max_iterations = 100000000;
  return spec;
}

/// Submits `spec` and waits for its terminal snapshot.
Result<GenerationService::JobInfo> RunJob(GenerationService& service, JobSpec spec) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id,
                         service.SubmitJob(std::move(spec)));
  return service.WaitJob(id);
}

TEST(GenerationService, CompletesConcurrentBatch) {
  GenerationService::Options opts;
  opts.num_threads = 4;
  GenerationService service(opts);
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 8; ++s) {
    auto id = service.SubmitJob(SmallJob(s));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (GenerationService::JobId id : ids) {
    auto info = service.WaitJob(id);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_EQ(info->state, JobState::kDone) << info->error.ToString();
    EXPECT_TRUE(std::isfinite(info->result->cost.total()));
    EXPECT_GT(info->result->widgets.CountInteractive(), 0u);
  }
  const auto counters = service.counters_snapshot();
  EXPECT_EQ(counters.jobs_submitted, 8u);
  EXPECT_EQ(counters.jobs_executed, 8u);
  EXPECT_EQ(counters.cache_hits, 0u);
}

TEST(GenerationService, IdenticalResubmissionHitsCache) {
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto first = RunJob(service, SmallJob(7));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->state, JobState::kDone);
  auto second = RunJob(service, SmallJob(7));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->state, JobState::kDone);
  EXPECT_TRUE(second->cache_hit);
  const auto counters = service.counters_snapshot();
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.jobs_executed, 1u);  // the second never ran
  EXPECT_DOUBLE_EQ(first->result->cost.total(), second->result->cost.total());
}

TEST(GenerationService, JobKeyIgnoresQueryOrderAndWhitespace) {
  JobSpec a = SmallJob(1);
  JobSpec b = SmallJob(1);
  std::swap(b.sqls[0], b.sqls[2]);        // order must not matter
  b.sqls[1] = "select  b  from   t  where x between 2 and 9";  // nor format
  EXPECT_EQ(GenerationService::JobKey(a), GenerationService::JobKey(b));

  JobSpec c = SmallJob(2);  // different seed: different result, different key
  EXPECT_NE(GenerationService::JobKey(a), GenerationService::JobKey(c));

  JobSpec d = SmallJob(1);
  d.sqls.push_back("select a from t");  // different log
  EXPECT_NE(GenerationService::JobKey(a), GenerationService::JobKey(d));
}

TEST(GenerationService, DestructionWithInFlightJobsIsSafe) {
  // The service must join its workers before tearing down the job records
  // and cache state they touch: destroying it with jobs running and queued
  // neither hangs nor crashes (the pool drains on exit).
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  for (uint64_t s = 0; s < 4; ++s) ASSERT_TRUE(service.SubmitJob(SmallJob(3 + s)).ok());
}  // service destroyed here, jobs possibly still running

TEST(GenerationService, TtStoreKeyPinnedForDefaultWorkloads) {
  // Persisted experience records (IFEX files) are keyed by TtStoreKey, so
  // its value for a given log and options must not drift: a changed hash
  // silently orphans every stored record.
  struct Pin {
    const char* workload;
    uint64_t key;
  };
  const Pin pins[] = {
      {"flights", 0xc9c0fb3bd753a908ULL},
      {"sdss", 0x3a81e28c6fa0476aULL},
      {"synthetic", 0x60fc62b4556b473aULL},
  };
  for (const Pin& pin : pins) {
    auto w = LoadWorkload(pin.workload, /*rows=*/1);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    JobSpec spec;
    spec.sqls = w->log;
    EXPECT_EQ(GenerationService::TtStoreKey(spec), pin.key) << pin.workload;
  }
}

TEST(GenerationService, JobKeyCoversEveryResultAffectingOption) {
  // One row per GeneratorOptions value field that can change a job's
  // output: each must move the result-cache key.
  using Edit = std::function<void(GeneratorOptions*)>;
  const std::vector<std::pair<const char*, Edit>> changes = {
      {"screen.width", [](GeneratorOptions* o) { o->screen.width = 81; }},
      {"screen.height", [](GeneratorOptions* o) { o->screen.height = 25; }},
      {"algorithm", [](GeneratorOptions* o) { o->algorithm = Algorithm::kGreedy; }},
      {"search.time_budget_ms", [](GeneratorOptions* o) { o->search.time_budget_ms = 7; }},
      {"search.max_iterations", [](GeneratorOptions* o) { o->search.max_iterations = 5; }},
      {"search.seed", [](GeneratorOptions* o) { o->search.seed = 2; }},
      {"search.exploration_c", [](GeneratorOptions* o) { o->search.exploration_c = 0.6; }},
      {"search.expand_all_children",
       [](GeneratorOptions* o) { o->search.expand_all_children = false; }},
      {"search.rollout_forward_bias",
       [](GeneratorOptions* o) { o->search.rollout_forward_bias = 0.5; }},
      {"search.rollout_saturate_prob",
       [](GeneratorOptions* o) { o->search.rollout_saturate_prob = 0.0; }},
      {"search.rollout_eval_prob",
       [](GeneratorOptions* o) { o->search.rollout_eval_prob = 0.5; }},
      {"search.beam_width", [](GeneratorOptions* o) { o->search.beam_width = 4; }},
      {"search.exhaustive_max_depth",
       [](GeneratorOptions* o) { o->search.exhaustive_max_depth = 3; }},
      {"search.exhaustive_max_states",
       [](GeneratorOptions* o) { o->search.exhaustive_max_states = 100; }},
      {"search.priors.use_priors",
       [](GeneratorOptions* o) { o->search.priors.use_priors = false; }},
      {"search.priors.progressive_widening",
       [](GeneratorOptions* o) { o->search.priors.progressive_widening = false; }},
      {"search.priors.learned_weights",
       [](GeneratorOptions* o) { o->search.priors.learned_weights = {{"Merge", 3.0}}; }},
      {"search.time_control.deadline_ms",
       [](GeneratorOptions* o) { o->search.time_control.deadline_ms = 500; }},
      {"search.time_control.target_cost",
       [](GeneratorOptions* o) { o->search.time_control.target_cost = 10.0; }},
      {"search.time_control.plateau_fraction",
       [](GeneratorOptions* o) { o->search.time_control.plateau_fraction = 0.5; }},
      {"parallel.num_threads", [](GeneratorOptions* o) { o->parallel.num_threads = 2; }},
      {"rules.max_tree_nodes", [](GeneratorOptions* o) { o->rules.max_tree_nodes = 900; }},
      {"constants", [](GeneratorOptions* o) { o->constants.m_label += 0.1; }},
      // The backend never changes the widgets, but requests select it and
      // the response reports it, so backends must not alias one result.
      {"backend", [](GeneratorOptions* o) { o->backend = BackendKind::kReference; }},
      {"k_assignments", [](GeneratorOptions* o) { o->k_assignments = 4; }},
      {"experience", [](GeneratorOptions* o) { o->experience = true; }},
  };
  const uint64_t base = GenerationService::JobKey(SmallJob(1));
  for (const auto& [name, edit] : changes) {
    JobSpec changed = SmallJob(1);
    edit(&changed.options);
    EXPECT_NE(GenerationService::JobKey(changed), base) << name;
  }
}

TEST(GenerationService, JobKeyIgnoresEvalAblationAndRuntimeWiring) {
  // Delta-cost evaluation yields bit-identical costs, and the runtime
  // wiring only observes or steers how much work a job does, so none of
  // them may split the result cache.
  using Edit = std::function<void(GeneratorOptions*)>;
  const std::vector<std::pair<const char*, Edit>> changes = {
      {"delta_cost_eval", [](GeneratorOptions* o) { o->delta_cost_eval = false; }},
      {"search.stop",
       [](GeneratorOptions* o) { o->search.stop = std::make_shared<StopHandle>(); }},
      {"search.progress",
       [](GeneratorOptions* o) { o->search.progress = std::make_shared<ProgressSink>(); }},
      {"search.warm_start",
       [](GeneratorOptions* o) { o->search.warm_start = std::make_shared<WarmStart>(); }},
      {"shared_delta_cache",
       [](GeneratorOptions* o) {
         o->shared_delta_cache = std::make_shared<DeltaCostCache>();
       }},
  };
  const uint64_t base = GenerationService::JobKey(SmallJob(1));
  for (const auto& [name, edit] : changes) {
    JobSpec changed = SmallJob(1);
    edit(&changed.options);
    EXPECT_EQ(GenerationService::JobKey(changed), base) << name;
  }
}

// ----------------------------------------------------- tracked job protocol

TEST(GenerationService, TrackedJobRunsToDone) {
  GenerationService::Options opts;
  opts.num_threads = 2;
  GenerationService service(opts);
  auto id = service.SubmitJob(SmallJob(11));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_TRUE(info->terminal());
  ASSERT_NE(info->result, nullptr);
  EXPECT_GT(info->result->widgets.CountInteractive(), 0u);
  EXPECT_FALSE(info->cache_hit);
  EXPECT_EQ(service.counters_snapshot().jobs_pending, 0u);

  // Identical resubmission: immediate kDone via the cache.
  auto id2 = service.SubmitJob(SmallJob(11));
  ASSERT_TRUE(id2.ok());
  auto info2 = service.GetJob(*id2);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info2->state, JobState::kDone);
  EXPECT_TRUE(info2->cache_hit);
  EXPECT_EQ(info2->run_ms, 0);
}

TEST(GenerationService, FailedJobReportsError) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  JobSpec bad = SmallJob(1);
  bad.sqls = {"this is not sql at all ((("};
  auto id = service.SubmitJob(std::move(bad));
  ASSERT_TRUE(id.ok());
  auto info = service.WaitJob(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kFailed);
  EXPECT_FALSE(info->error.ok());
  EXPECT_EQ(info->result, nullptr);
}

TEST(GenerationService, UnknownJobIdIsNotFound) {
  GenerationService service(GenerationService::Options{});
  auto info = service.GetJob(12345);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

TEST(GenerationService, BoundedQueueRejectsWithResourceExhausted) {
  // One worker blocked on a long-ish job + queue bound 1: the next
  // submission must be rejected, not enqueued.
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.max_pending_jobs = 1;
  opts.cache_capacity = 0;  // no cross-talk via the result cache
  GenerationService service(opts);
  auto first = service.SubmitJob(SmallJob(21));
  ASSERT_TRUE(first.ok());
  Result<GenerationService::JobId> second = service.SubmitJob(SmallJob(22));
  Result<GenerationService::JobId> third = service.SubmitJob(SmallJob(23));
  // At least one of the two extra submissions must have been rejected (the
  // first job may or may not have finished in between).
  const bool rejected = !second.ok() || !third.ok();
  EXPECT_TRUE(rejected);
  if (!second.ok()) {
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  }
  if (!third.ok()) {
    EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  }
  ASSERT_TRUE(service.WaitJob(*first).ok());
}

TEST(GenerationService, CancelQueuedJob) {
  // Saturate the single worker so a second job stays queued long enough to
  // cancel. Cancellation of running/terminal jobs is a documented no-op.
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 0;
  GenerationService service(opts);
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 6; ++s) {
    auto id = service.SubmitJob(SmallJob(30 + s));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Cancel from the back: the last job is most likely still queued.
  auto cancelled = service.CancelJob(ids.back());
  ASSERT_TRUE(cancelled.ok());
  for (GenerationService::JobId id : ids) {
    auto info = service.WaitJob(id);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->terminal());
    if (info->state == JobState::kCancelled) {
      EXPECT_EQ(info->error.code(), StatusCode::kCancelled);
      EXPECT_EQ(info->result, nullptr);
    }
  }
  EXPECT_EQ(service.counters_snapshot().jobs_pending, 0u);
}

TEST(GenerationService, QueuedJobsStartInAdmissionOrder) {
  // One worker, held by a blocker, while four short jobs queue behind it.
  // They are admitted within microseconds of each other, so each one's
  // queued_ms orders the starts: FIFO makes it non-decreasing in admission
  // order, where a newest-first queue would start the last one first.
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 0;
  GenerationService service(opts);
  auto blocker = service.SubmitJob(LongJob(70));
  ASSERT_TRUE(blocker.ok());
  auto running = service.WaitJob(*blocker, /*timeout_ms=*/-1, /*after_version=*/0);
  ASSERT_TRUE(running.ok());
  ASSERT_EQ(running->state, JobState::kRunning);
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 4; ++s) {
    JobSpec spec = SmallJob(71 + s);
    spec.options.search.max_iterations = 40;  // runs of a few ms each
    auto id = service.SubmitJob(std::move(spec));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(service.CancelJob(*blocker).ok());
  std::vector<int64_t> queued_ms;
  for (GenerationService::JobId id : ids) {
    auto info = service.WaitJob(id);
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->state, JobState::kDone) << info->error.ToString();
    queued_ms.push_back(info->queued_ms);
  }
  for (size_t i = 1; i < queued_ms.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_LE(queued_ms[j], queued_ms[i])
          << "job " << i + 2 << " started before job " << j + 2;
    }
  }
}

TEST(GenerationService, JobHistoryEvictsOldestFinished) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.job_history_capacity = 2;
  GenerationService service(opts);
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 4; ++s) {
    auto id = service.SubmitJob(SmallJob(50 + s));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    ASSERT_TRUE(service.WaitJob(*id).ok());
  }
  // Only the 2 most recent survive.
  EXPECT_EQ(service.GetJob(ids[0]).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.GetJob(ids[1]).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(service.GetJob(ids[2]).ok());
  EXPECT_TRUE(service.GetJob(ids[3]).ok());
}

TEST(GenerationService, CacheEvictsLeastRecentlyUsed) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 1;
  GenerationService service(opts);
  for (uint64_t seed : {1, 2, 1}) {  // job 2 evicts job 1, which re-executes
    auto info = RunJob(service, SmallJob(seed));
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->state, JobState::kDone);
  }
  const auto counters = service.counters_snapshot();
  EXPECT_EQ(counters.cache_hits, 0u);
  EXPECT_EQ(counters.jobs_executed, 3u);
}

TEST(GenerationService, WaitJobWakesOnEveryTerminalTransition) {
  GenerationService::Options opts;
  opts.num_threads = 1;
  GenerationService service(opts);
  // Waits from another thread, as a long-poller does, so the transition
  // under test is what wakes the wait.
  auto wait_async = [&service](GenerationService::JobId id) {
    return std::async(std::launch::async, [&service, id] { return service.WaitJob(id); });
  };

  // Done, then the identical resubmission finishing at admission.
  auto done_id = service.SubmitJob(SmallJob(61));
  ASSERT_TRUE(done_id.ok());
  auto done = wait_async(*done_id).get();
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, JobState::kDone);
  ASSERT_NE(done->result, nullptr);
  EXPECT_EQ(done->progress.version, done->result->stats.trace.size());
  auto hit = RunJob(service, SmallJob(61));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->state, JobState::kDone);
  EXPECT_TRUE(hit->cache_hit);

  // Failed.
  JobSpec bad = SmallJob(1);
  bad.sqls = {"this is not sql at all ((("};
  auto failed_id = service.SubmitJob(std::move(bad));
  ASSERT_TRUE(failed_id.ok());
  auto failed = wait_async(*failed_id).get();
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->state, JobState::kFailed);

  // after_version wakes on a publish: the long job is then mid-run.
  auto long_id = service.SubmitJob(LongJob(62));
  ASSERT_TRUE(long_id.ok());
  auto mid = service.WaitJob(*long_id, /*timeout_ms=*/-1, /*after_version=*/0);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->state, JobState::kRunning) << "the first publish must wake the wait";
  EXPECT_GE(mid->progress.version, 1u);
  EXPECT_NE(mid->progress.tree, nullptr);
  // A terminal-only wait with a timeout returns the running snapshot.
  auto still = service.WaitJob(*long_id, /*timeout_ms=*/10);
  ASSERT_TRUE(still.ok());
  EXPECT_FALSE(still->terminal());

  // Cancelled while queued: the one worker is busy with the long job.
  auto queued_id = service.SubmitJob(SmallJob(63));
  ASSERT_TRUE(queued_id.ok());
  auto queued_wait = wait_async(*queued_id);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  ASSERT_TRUE(service.CancelJob(*queued_id).ok());
  auto queued = queued_wait.get();
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(queued->state, JobState::kCancelled);
  EXPECT_EQ(queued->result, nullptr);

  // Cancelled while running: the partial best-so-far rides along.
  auto long_wait = wait_async(*long_id);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(service.CancelJob(*long_id).ok());
  auto cancelled = long_wait.get();
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_EQ(cancelled->error.code(), StatusCode::kCancelled);
  ASSERT_NE(cancelled->result, nullptr);
  EXPECT_EQ(cancelled->progress.version, cancelled->result->stats.trace.size());
  EXPECT_EQ(service.counters_snapshot().jobs_pending, 0u);
}

TEST(GenerationService, WaitJobOnAnEvictedRecordIsNotFound) {
  // One finished record is kept, so each job's finish evicts the one
  // before it. A waiter woken by its job's close can find the record
  // already evicted by the next finish: it must answer NotFound then, and
  // otherwise the terminal snapshot — never hang or return a live job.
  GenerationService::Options opts;
  opts.num_threads = 2;
  opts.cache_capacity = 0;
  opts.job_history_capacity = 1;
  GenerationService service(opts);
  std::vector<std::future<Result<GenerationService::JobInfo>>> waits;
  std::vector<GenerationService::JobId> ids;
  for (uint64_t s = 0; s < 12; ++s) {
    auto id = service.SubmitJob(SmallJob(70 + s));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    waits.push_back(std::async(std::launch::async,
                               [&service, id = *id] { return service.WaitJob(id); }));
  }
  for (auto& w : waits) {
    auto info = w.get();
    if (info.ok()) {
      EXPECT_TRUE(info->terminal());
    } else {
      EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
    }
  }
  // Every record but the newest finished one is gone by now.
  size_t evicted = 0;
  for (GenerationService::JobId id : ids) {
    auto info = service.WaitJob(id);
    if (!info.ok()) {
      EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
      ++evicted;
    }
  }
  EXPECT_EQ(evicted, ids.size() - 1);
}

}  // namespace
}  // namespace ifgen
