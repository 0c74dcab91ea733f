// Parallel search runtime: throughput and time-to-best-cost vs. thread
// count on the flights and SDSS workloads, plus GenerationService batch
// throughput and result-cache behavior.
//
// Emits one JSON row per configuration (machine-readable alongside the
// human-readable header lines, like the other harnesses):
//   {"bench":"parallel","workload":"flights","mode":"root","threads":4,...}
//
// Set IFGEN_BUDGET_MS to change the per-search wall-clock budget and
// IFGEN_BENCH_THREADS (comma-free max, e.g. 8) to change the sweep ceiling.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "runtime/service.h"
#include "search/mcts.h"
#include "sql/parser.h"
#include "util/timer.h"
#include "workload/flights.h"
#include "workload/sdss.h"

using namespace ifgen;  // NOLINT

namespace {

struct Workload {
  const char* name;
  std::vector<std::string> sqls;
};

void PrintRow(const char* workload, const char* mode, size_t threads, int64_t ms,
              double best_cost, size_t iterations, size_t evals, size_t tt_hits,
              int64_t ms_to_best) {
  // Human-readable line...
  std::printf("%-8s %-6s threads=%zu  %6lld ms  cost=%8.2f  iters=%6zu  "
              "evals=%7zu  tt_hits=%6zu  t_best=%5lld ms\n",
              workload, mode, threads, static_cast<long long>(ms), best_cost,
              iterations, evals, tt_hits, static_cast<long long>(ms_to_best));
  // ...and the JSON row (one line, greppable).
  std::printf("{\"bench\":\"parallel\",\"workload\":\"%s\",\"mode\":\"%s\","
              "\"threads\":%zu,\"ms\":%lld,\"best_cost\":%.4f,\"iterations\":%zu,"
              "\"evaluations\":%zu,\"tt_hits\":%zu,\"ms_to_best\":%lld}\n",
              workload, mode, threads, static_cast<long long>(ms), best_cost,
              iterations, evals, tt_hits, static_cast<long long>(ms_to_best));
}

int64_t TimeToBest(const SearchStats& stats) {
  return stats.trace.empty() ? 0 : stats.trace.back().ms;
}

void SweepWorkload(const Workload& w, int64_t budget_ms) {
  auto queries = *ParseQueries(w.sqls);
  DiffTree initial = *BuildInitialTree(queries);
  RuleEngine rules;

  for (size_t threads : {1, 2, 4, 8}) {
    // Fresh evaluator per run: a warm cache would flatter later configs.
    EvalOptions eopts;
    eopts.screen = {100, 40};
    StateEvaluator eval(eopts, queries);

    SearchOptions sopts;
    sopts.time_budget_ms = budget_ms;
    sopts.seed = 7;
    ParallelOptions popts;
    popts.num_threads = threads;

    MctsSearcher searcher(&rules, &eval, sopts, popts);
    Stopwatch watch;
    auto r = searcher.Run(initial);
    int64_t ms = watch.ElapsedMillis();
    if (!r.ok()) {
      std::printf("%-8s threads=%zu FAILED: %s\n", w.name, threads,
                  r.status().ToString().c_str());
      continue;
    }
    PrintRow(w.name, threads == 1 ? "serial" : "root", threads, ms, r->best_cost,
             r->stats.iterations, eval.evaluations(), r->stats.transposition_hits,
             TimeToBest(r->stats));
  }
}

void BenchService(int64_t budget_ms) {
  bench::PrintHeader("GenerationService: concurrent batch + result cache");
  GenerationService::Options sopts;
  sopts.num_threads = 4;
  GenerationService service(sopts);

  std::vector<JobSpec> jobs;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    JobSpec spec;
    spec.sqls = FlightsLog();
    spec.options.search.time_budget_ms = budget_ms / 4;
    spec.options.search.seed = seed;
    jobs.push_back(std::move(spec));
  }
  std::vector<JobSpec> rerun = jobs;  // identical batch, should hit the cache

  // Submits the whole batch, then waits for each job; returns how many
  // finished kDone.
  auto run_batch = [&service](std::vector<JobSpec> batch) {
    std::vector<GenerationService::JobId> ids;
    for (JobSpec& spec : batch) {
      auto id = service.SubmitJob(std::move(spec));
      if (id.ok()) ids.push_back(*id);
    }
    size_t done = 0;
    for (GenerationService::JobId id : ids) {
      auto info = service.WaitJob(id);
      done += info.ok() && info->state == JobState::kDone ? 1 : 0;
    }
    return done;
  };

  Stopwatch watch;
  const size_t ok = run_batch(std::move(jobs));
  int64_t cold_ms = watch.ElapsedMillis();

  watch.Restart();
  const size_t cached_ok = run_batch(std::move(rerun));
  int64_t warm_ms = watch.ElapsedMillis();
  const size_t cache_hits = service.counters_snapshot().cache_hits;

  std::printf("cold batch: %zu/8 ok in %lld ms (%.2f jobs/s)\n", ok,
              static_cast<long long>(cold_ms),
              8000.0 / static_cast<double>(cold_ms ? cold_ms : 1));
  std::printf("warm batch: %zu/8 ok in %lld ms, cache hits=%zu\n", cached_ok,
              static_cast<long long>(warm_ms), cache_hits);
  std::printf("{\"bench\":\"parallel_service\",\"jobs\":8,\"cold_ms\":%lld,"
              "\"warm_ms\":%lld,\"cache_hits\":%zu}\n",
              static_cast<long long>(cold_ms), static_cast<long long>(warm_ms),
              cache_hits);
}

}  // namespace

int main() {
  int64_t budget = bench::BudgetMs(2000);
  // A zero/garbage IFGEN_BUDGET_MS would mean "unlimited" to the searcher
  // (which, with no iteration cap, never returns); fall back instead.
  if (budget <= 0) budget = 2000;
  bench::PrintHeader("Parallel MCTS: threads vs. wall-clock and best cost");
  std::printf("budget per search: %lld ms (IFGEN_BUDGET_MS to change)\n\n",
              static_cast<long long>(budget));

  SweepWorkload({"flights", FlightsLog()}, budget);
  std::printf("\n");
  SweepWorkload({"sdss", SdssListing1()}, budget);

  BenchService(budget);

  std::printf("\nexpected shape: with a fixed wall-clock budget, more threads "
              "run more\niterations and reach equal-or-better cost sooner "
              "(ms_to_best); the shared\ntransposition table's hit count grows "
              "with tree count. On a single-core\nhost the parallel "
              "configurations mainly demonstrate correctness, not speedup.\n");
  return 0;
}
