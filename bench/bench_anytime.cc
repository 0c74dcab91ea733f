// Anytime behavior under deadline-aware time control: for each workload ×
// searcher × deadline, run the search with TimeControlOptions::deadline_ms
// and report time-to-first-result (the first best-so-far trace entry) plus
// the cost reached at the deadline against a fixed-iteration baseline given the
// same iteration count (what the deadline actually bought vs what those
// iterations buy unrushed). Also prints the classic best-cost-vs-wall-clock
// curve on Listing 1 (the paper runs MCTS "for around 1 minute").
//
// JSON rows (one line each, `"bench":"anytime"`) are documented in
// bench/README.md and validated by scripts/check_bench_json.py.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/interface_generator.h"
#include "difftree/builder.h"
#include "search/mcts.h"
#include "search/timeman.h"
#include "sql/parser.h"
#include "util/json.h"
#include "workload/loader.h"
#include "workload/sdss.h"

using namespace ifgen;  // NOLINT

namespace {

void PrintTrace(const char* name, const SearchResult& r) {
  std::printf("\n%s best-cost trace (initial %.2f):\n", name, r.stats.initial_cost);
  std::printf("%10s %12s\n", "ms", "best cost");
  for (const BestTrace& t : r.stats.trace) {
    std::printf("%10lld %12.2f\n", static_cast<long long>(t.ms), t.cost);
  }
  std::printf("final: %.2f after %lld ms (%zu iterations, %zu rollouts)\n",
              r.best_cost, static_cast<long long>(r.stats.elapsed_ms),
              r.stats.iterations, r.stats.rollouts);
}

struct BenchWorkload {
  std::string name;
  std::vector<Ast> queries;
};

std::vector<BenchWorkload> AnytimeWorkloads(size_t max_queries) {
  std::vector<BenchWorkload> out;
  for (const std::string& name : WorkloadNames()) {
    auto bundle = LoadWorkload(name);
    if (!bundle.ok()) continue;
    std::vector<std::string> sqls(
        bundle->log.begin(),
        bundle->log.begin() + std::min(max_queries, bundle->log.size()));
    auto parsed = ParseQueries(sqls);
    if (!parsed.ok()) continue;
    out.push_back({name, std::move(*parsed)});
  }
  return out;
}

struct SearcherKind {
  const char* name;
  size_t threads;  ///< <= 1 = one tree (serial)
};

Result<SearchResult> RunSearch(const SearcherKind& kind, RuleEngine* rules,
                               StateEvaluator* eval, const SearchOptions& opts,
                               const DiffTree& initial) {
  ParallelOptions popts;
  popts.num_threads = kind.threads;
  MctsSearcher s(rules, eval, opts, popts);
  return s.Run(initial);
}

void DeadlineSweep() {
  bench::PrintHeader("Deadline sweep: cost at deadline vs fixed-iteration baseline");
  const bool smoke = bench::SmokeMode();
  const size_t max_queries = smoke ? 4 : 8;
  const std::vector<int64_t> deadlines =
      smoke ? std::vector<int64_t>{30, 60} : std::vector<int64_t>{50, 200, 1000};
  const std::vector<SearcherKind> searchers = {
      {"mcts", 0}, {"mcts-root", smoke ? size_t{2} : size_t{4}}};

  std::printf("%-10s %-10s %9s %8s %12s %12s %10s\n", "workload", "searcher",
              "deadline", "ttfr_ms", "cost@dl", "base_cost", "stop");
  for (const BenchWorkload& w : AnytimeWorkloads(max_queries)) {
    DiffTree initial = *BuildInitialTree(w.queries);
    for (const SearcherKind& kind : searchers) {
      for (int64_t deadline : deadlines) {
        SearchOptions opts;
        opts.time_budget_ms = 0;
        opts.max_iterations = 0;  // the deadline is the only bound
        opts.seed = 3;
        opts.time_control.deadline_ms = deadline;

        RuleEngine rules;
        EvalOptions eopts;
        eopts.screen = {100, 40};
        StateEvaluator eval(eopts, w.queries);
        auto r = RunSearch(kind, &rules, &eval, opts, initial);
        if (!r.ok()) continue;

        // Each published improvement is one trace entry.
        const int64_t ttfr_ms = r->stats.trace.empty() ? -1 : r->stats.trace.front().ms;

        // Baseline: the same iteration count with no clock pressure — how
        // much (if anything) the deadline machinery costs in final quality.
        SearchOptions base_opts;
        base_opts.time_budget_ms = 0;
        base_opts.max_iterations = std::max<size_t>(1, r->stats.iterations);
        base_opts.seed = 3;
        RuleEngine base_rules;
        StateEvaluator base_eval(eopts, w.queries);
        auto base = RunSearch(kind, &base_rules, &base_eval, base_opts, initial);
        if (!base.ok()) continue;

        std::printf("%-10s %-10s %9lld %8lld %12.2f %12.2f %10s\n",
                    w.name.c_str(), kind.name, static_cast<long long>(deadline),
                    static_cast<long long>(ttfr_ms), r->best_cost,
                    base->best_cost, StopReasonName(r->stats.stop_reason).data());
        std::printf(
            "{\"bench\":\"anytime\",\"workload\":\"%s\",\"searcher\":\"%s\","
            "\"deadline_ms\":%lld,\"time_to_first_result_ms\":%lld,"
            "\"cost_at_deadline\":%s,\"iterations\":%zu,\"stop_reason\":\"%s\","
            "\"baseline_iterations\":%zu,\"baseline_cost\":%s}\n",
            w.name.c_str(), kind.name, static_cast<long long>(deadline),
            static_cast<long long>(ttfr_ms), JsonDouble(r->best_cost).c_str(),
            r->stats.iterations, StopReasonName(r->stats.stop_reason).data(),
            base->stats.iterations, JsonDouble(base->best_cost).c_str());
      }
    }
  }
}

void Listing1Curves() {
  bench::PrintHeader("Anytime curves on Listing 1 (cost vs wall clock)");
  const int64_t budget = bench::BudgetMs(bench::SmokeMode() ? 300 : 5000);
  auto queries = *ParseQueries(SdssListing1());
  DiffTree initial = *BuildInitialTree(queries);

  for (Algorithm algo : {Algorithm::kMcts, Algorithm::kRandom}) {
    RuleEngine rules;
    EvalOptions eopts;
    eopts.screen = {100, 40};
    StateEvaluator eval(eopts, queries);
    SearchOptions sopts;
    sopts.time_budget_ms = budget;
    sopts.seed = 3;
    auto searcher = MakeSearcher(algo, &rules, &eval, sopts);
    auto r = searcher->Run(initial);
    if (r.ok()) {
      PrintTrace(AlgorithmName(algo).data(), *r);
    }
  }
  std::printf("\nexpected shape: both improve early; MCTS keeps improving and "
              "ends at a lower cost than random under the same budget.\n");
}

}  // namespace

int main() {
  DeadlineSweep();
  Listing1Curves();
  return 0;
}
