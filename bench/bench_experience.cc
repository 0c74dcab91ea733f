// Persistent experience warm start (docs/learning.md): cold vs warm
// iterations-to-equal-cost on one workload.
//
// Pass 1 (cold) runs an iteration-capped MCTS job with `experience` on
// against an empty store and takes its final cost as the target. The
// store's records then round-trip through SaveTo/LoadFrom (the same wire
// format the servers persist), and pass 2 (warm) runs the identical spec
// against the reloaded store. Both arms report the first best-so-far trace
// iteration at or under the target: the warm arm reaching it in fewer
// iterations is the whole point of the store (root-action virtual visits +
// pre-seeded transposition/delta caches).
//
// Emits one `"bench":"experience"` JSON row per arm, documented in
// bench/README.md and validated by scripts/check_bench_json.py.
// IFGEN_BENCH_SMOKE=1 shrinks the sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "learn/experience.h"
#include "runtime/service.h"
#include "util/json.h"
#include "util/timer.h"
#include "workload/loader.h"

using namespace ifgen;  // NOLINT

namespace {

struct ArmResult {
  bool warm = false;
  size_t iterations = 0;
  double best_cost = 0.0;
  double target_cost = 0.0;
  size_t iterations_to_target = 0;
  size_t seeded = 0;
  double ms = 0.0;
  bool ok = false;
};

/// First best-so-far iteration with cost <= target; the run's final
/// iteration count when the curve never dips under it.
size_t IterationsToTarget(const SearchStats& stats, double target) {
  for (const BestTrace& t : stats.trace) {
    if (t.cost <= target + 1e-9) return t.iteration;
  }
  return stats.iterations;
}

/// The arm's best SAMPLED cost — the last best-so-far trace point. The
/// final `cost.total()` comes from the thorough FindBest pass and sits
/// below every sampled point, so it can never anchor an in-search target.
double BestSampledCost(const GeneratedInterface& result) {
  return result.stats.trace.empty() ? result.cost.total()
                                    : result.stats.trace.back().cost;
}

ArmResult RunArm(const std::vector<std::string>& log, size_t iterations,
                 std::shared_ptr<learn::ExperienceStore> store, bool warm,
                 double target) {
  ArmResult out;
  out.warm = warm;

  GenerationService::Options sopts;
  sopts.num_threads = 1;
  sopts.cache_capacity = 0;  // the warm arm must re-execute, not cache-hit
  sopts.experience = std::move(store);
  GenerationService service(sopts);

  JobSpec spec;
  spec.sqls = log;
  spec.options.experience = true;
  spec.options.search.time_budget_ms = 0;  // iteration-capped: deterministic
  spec.options.search.max_iterations = iterations;
  spec.options.search.seed = 7;

  Stopwatch watch;
  Result<GeneratedInterface> result = [&]() -> Result<GeneratedInterface> {
    IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id, service.SubmitJob(spec));
    IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info, service.WaitJob(id));
    if (info.state != JobState::kDone) return info.error;
    return *info.result;
  }();
  out.ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;
  if (!result.ok()) {
    std::fprintf(stderr, "%s arm failed: %s\n", warm ? "warm" : "cold",
                 result.status().ToString().c_str());
    return out;
  }
  out.iterations = result->stats.iterations;
  out.best_cost = result->cost.total();
  out.target_cost = warm ? target : BestSampledCost(*result);
  out.iterations_to_target = IterationsToTarget(result->stats, out.target_cost);
  out.seeded = service.counters_snapshot().learn_seeded;
  out.ok = true;
  return out;
}

void EmitRow(const ArmResult& r, const char* workload) {
  std::printf(
      "{\"bench\":\"experience\",\"workload\":\"%s\",\"warm\":%s,"
      "\"iterations\":%zu,\"best_cost\":%s,\"target_cost\":%s,"
      "\"iterations_to_target\":%zu,\"seeded\":%zu,\"ms\":%s}\n",
      workload, r.warm ? "true" : "false", r.iterations,
      JsonDouble(r.best_cost).c_str(), JsonDouble(r.target_cost).c_str(),
      r.iterations_to_target, r.seeded, JsonDouble(r.ms).c_str());
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  bench::PrintHeader("Persistent experience: cold vs warm iterations-to-equal-cost");

  const size_t iterations = smoke ? 80 : 400;
  for (const char* workload : {"flights", "sdss"}) {
    auto bundle = LoadWorkload(workload, smoke ? 200 : 0);
    if (!bundle.ok()) {
      std::fprintf(stderr, "workload %s: %s\n", workload,
                   bundle.status().ToString().c_str());
      return 1;
    }

    // Cold arm: empty store; its best sampled cost is the bar the warm arm
    // chases.
    auto cold_store = std::make_shared<learn::ExperienceStore>();
    ArmResult cold = RunArm(bundle->log, iterations, cold_store,
                            /*warm=*/false, /*target=*/0.0);
    if (!cold.ok) return 1;

    // Persist + reload: the warm arm reads exactly what a restarted server
    // would, not the in-memory store object.
    const std::string path = "bench_experience.exp";
    if (Status st = cold_store->SaveTo(path); !st.ok()) {
      std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
      return 1;
    }
    auto warm_store = std::make_shared<learn::ExperienceStore>();
    auto loaded = warm_store->LoadFrom(path);
    std::remove(path.c_str());
    if (!loaded.ok() || *loaded == 0) {
      std::fprintf(stderr, "reload produced no records\n");
      return 1;
    }

    ArmResult warm = RunArm(bundle->log, iterations, warm_store,
                            /*warm=*/true, cold.target_cost);
    if (!warm.ok) return 1;

    std::printf(
        "%s cold: %zu iterations, cost %.3f (target hit at %zu)\n"
        "%s warm: %zu iterations, cost %.3f, target hit at %zu "
        "(%zu record(s) persisted, %zu seeded)\n",
        workload, cold.iterations, cold.best_cost, cold.iterations_to_target,
        workload, warm.iterations, warm.best_cost, warm.iterations_to_target,
        *loaded, warm.seeded);
    EmitRow(cold, workload);
    EmitRow(warm, workload);
  }
  return 0;
}
