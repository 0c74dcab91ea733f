// Cluster result cache: a same-schema job storm through a 3-worker cluster
// (docs/cluster.md).
//
// The storm submits N jobs that share workload + seed but differ in
// iteration budget: distinct result-cache keys (budgets are part of the
// job fingerprint). A cold pass computes every job on its placement
// worker; a repeat of the identical storm then measures the result cache
// (consistent-hash placement routes each repeat to the worker that ran it).
//
// Emits one `"bench":"cluster_cache"` JSON row, documented in
// bench/README.md and validated by scripts/check_bench_json.py.
// IFGEN_BENCH_SMOKE=1 shrinks the storm.
//
// This binary doubles as the worker binary: main() checks
// IsWorkerInvocation and re-execs itself per worker (fork+exec).
#include <cstdio>
#include <string>
#include <vector>

#include "api/dto.h"
#include "bench/bench_util.h"
#include "cluster/cluster_router.h"
#include "cluster/process.h"
#include "util/json.h"
#include "util/timer.h"

using namespace ifgen;  // NOLINT

namespace {

constexpr int kWorkers = 3;

api::GenerateRequest StormRequest(int64_t max_iterations) {
  api::GenerateRequest req;
  req.workload = "flights";
  req.options.time_budget_ms = 0;  // iteration-capped: deterministic
  req.options.max_iterations = max_iterations;
  req.options.seed = 5;
  req.options.screen_width = 90;
  req.options.screen_height = 32;
  return req;
}

struct StormResult {
  size_t jobs = 0;
  double cold_ms = 0.0;
  double repeat_ms = 0.0;
  int64_t repeat_cache_hits = 0;
  bool ok = false;
};

/// Runs the storm (cold pass + repeat pass) against a fresh 3-worker
/// cluster; tears the cluster down afterwards.
StormResult RunStorm(const std::string& self_exe,
                     const std::vector<int64_t>& budgets) {
  StormResult out;
  out.jobs = budgets.size();

  std::vector<cluster::SpawnedWorker> spawned;
  cluster::ClusterRouter router;
  cluster::ClusterRouter::Options ropts;
  for (int i = 0; i < kWorkers; ++i) {
    auto w = cluster::SpawnWorkerProcess(
        self_exe, {"--rows", "300", "--threads", "1", "--max-pending", "64"});
    if (!w.ok()) {
      std::fprintf(stderr, "spawn: %s\n", w.status().ToString().c_str());
      return out;
    }
    spawned.push_back(*w);
    ropts.workers.push_back({"127.0.0.1", w->port});
  }
  ropts.health_interval_ms = 100;  // the cadence cluster_test uses
  ropts.reconnect_backoff_ms = 50;
  auto shutdown = [&] {
    router.Stop();
    for (const cluster::SpawnedWorker& w : spawned) {
      (void)cluster::TerminateWorker(w.pid, /*grace_ms=*/5000);
    }
  };
  if (Status st = router.Start(std::move(ropts)); !st.ok()) {
    std::fprintf(stderr, "router: %s\n", st.ToString().c_str());
    shutdown();
    return out;
  }

  // Sequential passes: one job in flight at a time.
  auto run_pass = [&](double* total_ms, int64_t* cache_hits) -> bool {
    Stopwatch watch;
    for (const int64_t budget : budgets) {
      auto acc = router.SubmitGenerate(StormRequest(budget));
      if (!acc.ok()) {
        std::fprintf(stderr, "submit: %s\n", acc.status().ToString().c_str());
        return false;
      }
      auto done = router.GetJob(acc->job_id, /*wait_ms=*/60000);
      if (!done.ok() || done->state != "done") {
        std::fprintf(stderr, "job %s did not finish\n", acc->job_id.c_str());
        return false;
      }
      if (cache_hits != nullptr && done->cache_hit) ++(*cache_hits);
    }
    *total_ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;
    return true;
  };
  if (!run_pass(&out.cold_ms, nullptr)) {
    shutdown();
    return out;
  }

  // Repeat the identical storm: every job answers from its owner's result
  // cache.
  if (!run_pass(&out.repeat_ms, &out.repeat_cache_hits)) {
    shutdown();
    return out;
  }

  out.ok = true;
  shutdown();
  return out;
}

void EmitRow(const StormResult& r) {
  std::printf(
      "{\"bench\":\"cluster_cache\",\"workload\":\"flights\","
      "\"workers\":%d,\"jobs\":%zu,\"cold_ms\":%s,\"repeat_ms\":%s,"
      "\"repeat_cache_hits\":%lld}\n",
      kWorkers, r.jobs, JsonDouble(r.cold_ms).c_str(),
      JsonDouble(r.repeat_ms).c_str(),
      static_cast<long long>(r.repeat_cache_hits));
}

}  // namespace

int main(int argc, char** argv) {
  if (cluster::IsWorkerInvocation(argc, argv)) {
    return cluster::RunWorkerMain(argc, argv);
  }
  const bool smoke = bench::SmokeMode();

  bench::PrintHeader("Cluster result cache: same-schema job storm");

  auto self = cluster::SelfExePath();
  if (!self.ok()) {
    std::fprintf(stderr, "self exe: %s\n", self.status().ToString().c_str());
    return 1;
  }

  // Same workload + seed, distinct budgets: N distinct result-cache keys.
  std::vector<int64_t> budgets;
  const size_t jobs = smoke ? 4 : 10;
  for (size_t i = 0; i < jobs; ++i) {
    budgets.push_back(static_cast<int64_t>(smoke ? 12 + 8 * i : 20 + 12 * i));
  }

  StormResult r = RunStorm(*self, budgets);
  if (!r.ok) return 1;
  std::printf("cold %8.1f ms, repeat %8.1f ms (%lld/%zu cached)\n", r.cold_ms,
              r.repeat_ms, static_cast<long long>(r.repeat_cache_hits), r.jobs);
  EmitRow(r);
  std::printf("clean shutdown\n");
  return 0;
}
