// End-to-end interface-interaction latency per execution backend:
//   generate (once per workload) -> bind widget state (LoadQuery) ->
//   execute the bound query against the backend.
// One interaction = one widget-driven query transition. Re-executions of
// one interface reuse compiled plans (the per-backend plan cache keyed by
// the parameterized query shape), so the steady-state numbers isolate
// execution speed: the vectorized columnar backend should beat the
// row-at-a-time reference executor.
//
// JSON rows (one line each, `"bench":"backend"`) are documented in
// bench/README.md. IFGEN_BENCH_SMOKE=1 shrinks everything for CI.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/interface_generator.h"
#include "core/session.h"
#include "engine/backend.h"
#include "sql/parser.h"
#include "util/timer.h"
#include "workload/loader.h"

using namespace ifgen;  // NOLINT

namespace {

struct BackendRun {
  std::string backend;
  int64_t setup_us = 0;
  int64_t bind_us = 0;
  int64_t exec_us = 0;
  size_t interactions = 0;
  size_t skipped = 0;
  size_t rows_out = 0;
  BackendStats stats;
};

/// Replays the whole log `rounds` times through a fresh session, executing
/// every bound query on `backend`.
Result<BackendRun> RunBackend(const WorkloadBundle& w, const GeneratedInterface& iface,
                              const std::vector<Ast>& queries,
                              const CostConstants& constants, BackendKind kind,
                              size_t rounds) {
  BackendRun run;
  run.backend = std::string(BackendKindName(kind));
  Stopwatch setup;
  IFGEN_ASSIGN_OR_RETURN(std::unique_ptr<ExecutionBackend> backend,
                         MakeBackendFor(w, kind));
  run.setup_us = setup.ElapsedMicros();
  for (size_t round = 0; round < rounds; ++round) {
    IFGEN_ASSIGN_OR_RETURN(InterfaceSession session,
                           InterfaceSession::Create(iface, constants));
    for (const Ast& q : queries) {
      Stopwatch bind;
      if (!session.LoadQuery(q).ok()) {
        ++run.skipped;  // inexpressible under this interface
        continue;
      }
      run.bind_us += bind.ElapsedMicros();
      Stopwatch exec;
      IFGEN_ASSIGN_OR_RETURN(Table result, session.ExecuteCurrent(backend.get()));
      run.exec_us += exec.ElapsedMicros();
      run.rows_out += result.num_rows();
      ++run.interactions;
    }
  }
  run.stats = backend->stats();
  return run;
}

void PrintRow(const char* workload, size_t rows_db, size_t rounds,
              int64_t generate_ms, const BackendRun& r) {
  double per_exec_us =
      r.interactions == 0 ? 0.0
                          : static_cast<double>(r.exec_us) /
                                static_cast<double>(r.interactions);
  double end_to_end_us =
      r.interactions == 0 ? 0.0
                          : static_cast<double>(r.bind_us + r.exec_us) /
                                static_cast<double>(r.interactions);
  std::printf("  %-10s setup=%6.1fms  bind=%7.1fus/ix  exec=%7.1fus/ix  "
              "e2e=%7.1fus/ix  plans=%zu  cache_hits=%zu  rows=%zu  skipped=%zu\n",
              r.backend.c_str(), r.setup_us / 1000.0,
              r.interactions ? static_cast<double>(r.bind_us) / r.interactions : 0.0,
              per_exec_us, end_to_end_us, r.stats.prepares, r.stats.plan_cache_hits,
              r.rows_out, r.skipped);
  std::printf("{\"bench\":\"backend\",\"workload\":\"%s\",\"backend\":\"%s\","
              "\"rows_db\":%zu,\"rounds\":%zu,\"interactions\":%zu,"
              "\"skipped\":%zu,\"generate_ms\":%lld,\"setup_us\":%lld,"
              "\"bind_us\":%lld,\"exec_us\":%lld,\"exec_us_per_interaction\":%.2f,"
              "\"end_to_end_us_per_interaction\":%.2f,\"prepares\":%zu,"
              "\"plan_cache_hits\":%zu,\"executions\":%zu,\"rows_out\":%zu}\n",
              workload, r.backend.c_str(), rows_db, rounds, r.interactions,
              r.skipped, static_cast<long long>(generate_ms),
              static_cast<long long>(r.setup_us), static_cast<long long>(r.bind_us),
              static_cast<long long>(r.exec_us), per_exec_us, end_to_end_us,
              r.stats.prepares, r.stats.plan_cache_hits, r.stats.executions,
              r.rows_out);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  const size_t rounds = smoke ? 1 : 5;
  bench::PrintHeader(
      "End-to-end interface-interaction latency per execution backend\n"
      "(generate once, then per interaction: bind widget state -> execute)");

  struct Sized {
    const char* name;
    size_t rows;
  };
  const Sized workloads[] = {{"flights", smoke ? size_t{500} : size_t{20000}},
                             {"sdss", smoke ? size_t{500} : size_t{8000}},
                             {"synthetic", smoke ? size_t{200} : size_t{2000}}};

  GeneratorOptions opt;
  opt.search.seed = 7;
  if (smoke) {
    opt.search.time_budget_ms = 0;
    opt.search.max_iterations = 10;
  } else {
    opt.search.time_budget_ms = bench::BudgetMs(1500);
  }

  for (const Sized& sized : workloads) {
    auto wl = LoadWorkload(sized.name, sized.rows);
    if (!wl.ok()) {
      std::printf("load %s failed: %s\n", sized.name, wl.status().ToString().c_str());
      return 1;
    }
    auto queries = ParseQueries(wl->log);
    if (!queries.ok()) return 1;

    // Safety net: the backends must agree before we time them.
    Status agree = VerifyBackendsAgree(wl->db, wl->log, AvailableBackends());
    if (!agree.ok()) {
      std::printf("BACKEND MISMATCH on %s: %s\n", sized.name,
                  agree.ToString().c_str());
      return 1;
    }

    Stopwatch gen;
    auto iface = GenerateInterface(wl->log, opt);
    int64_t generate_ms = gen.ElapsedMillis();
    if (!iface.ok()) {
      std::printf("generate %s failed: %s\n", sized.name,
                  iface.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s (%zu rows/table, %zu queries, generate=%lldms):\n",
                sized.name, sized.rows, queries->size(),
                static_cast<long long>(generate_ms));

    double reference_e2e = 0.0;
    for (BackendKind kind : AvailableBackends()) {
      auto run = RunBackend(*wl, *iface, *queries, opt.constants, kind, rounds);
      if (!run.ok()) {
        std::printf("  %s failed: %s\n", std::string(BackendKindName(kind)).c_str(),
                    run.status().ToString().c_str());
        return 1;
      }
      PrintRow(sized.name, sized.rows, rounds, generate_ms, *run);
      double e2e = run->interactions == 0
                       ? 0.0
                       : static_cast<double>(run->bind_us + run->exec_us) /
                             static_cast<double>(run->interactions);
      if (kind == BackendKind::kReference) {
        reference_e2e = e2e;
      } else if (kind == BackendKind::kColumnar && e2e > 0.0) {
        std::printf("  -> columnar end-to-end speedup vs reference: %.2fx\n",
                    reference_e2e / e2e);
      }
    }
  }
  return 0;
}
