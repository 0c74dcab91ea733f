#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "engine/table.h"
#include "sql/ast.h"
#include "util/status.h"
#include "util/timer.h"

namespace ifgen {

/// \brief The execution backends a generated interface can run against.
enum class BackendKind : uint8_t {
  kReference = 0,  ///< the row-at-a-time demo executor (reference semantics)
  kColumnar,       ///< vectorized typed-column engine (src/engine/columnar/)
  kSqlite,         ///< SQLite :memory: store (requires IFGEN_WITH_SQLITE)
};

std::string_view BackendKindName(BackendKind k);

/// True when the backend is compiled into this build (kSqlite is gated on
/// the IFGEN_WITH_SQLITE CMake option).
bool BackendAvailable(BackendKind k);

/// All backends compiled into this build, reference first.
std::vector<BackendKind> AvailableBackends();

/// \brief A query split into its shape and its literal bindings.
///
/// Literals in WHERE, TOP, and LIMIT positions are replaced by
/// `Symbol::kParam` placeholders (1-based, rendered `?N` by the unparser);
/// SELECT/GROUP BY/ORDER BY literals stay inline because they determine the
/// output schema. Widget-driven re-executions of one interface state change
/// only literals, so they share a shape — and therefore a compiled plan.
struct ParameterizedQuery {
  Ast shape;
  std::vector<Value> params;  ///< placeholder N binds params[N-1]
  std::string key;            ///< canonical SQL of `shape` (the plan-cache key)
};

Result<ParameterizedQuery> ParameterizeQuery(const Ast& query);

/// Substitutes `params` back into a copy of `shape` (inverse of
/// ParameterizeQuery up to literal spelling); used by tests and by callers
/// that need a concrete AST again.
Result<Ast> BindParams(const Ast& shape, const std::vector<Value>& params);

/// \brief Counters every backend maintains (see ExecutionBackend::stats).
struct BackendStats {
  size_t prepares = 0;         ///< plan compilations (plan-cache misses)
  size_t plan_cache_hits = 0;  ///< Prepare calls answered from the cache
  size_t executions = 0;       ///< plan executions, full or delta (RunExecution)
};

/// \brief A compiled query plan bound to one backend; re-executable with
/// fresh parameter bindings.
class PreparedQuery {
 public:
  PreparedQuery(std::string key, size_t num_params)
      : key_(std::move(key)), num_params_(num_params) {}
  virtual ~PreparedQuery() = default;

  const std::string& key() const { return key_; }
  size_t num_params() const { return num_params_; }

  /// Executes with the given bindings. Thread-safe: implementations either
  /// read immutable plan state only or serialize internally (SQLite).
  virtual Result<Table> Execute(const std::vector<Value>& params) = 0;

 private:
  std::string key_;
  size_t num_params_;
};

/// \brief Abstract query-execution backend: `Prepare(Ast) -> PreparedQuery`,
/// `Execute(params) -> Result<Table>`, plus catalog/stats introspection.
///
/// The base class owns the per-backend plan cache, keyed by the canonical
/// SQL of the parameterized shape; subclasses implement `Compile` only.
/// Prepared plans live as long as the backend. All three backends must
/// produce equivalent Tables (same schema names/arity, same multiset of
/// rows — see TablesEquivalent); tests/backend_test.cc enforces this on the
/// flights, SDSS, and synthetic workloads.
class ExecutionBackend {
 public:
  explicit ExecutionBackend(const Database* db) : db_(db) {}
  virtual ~ExecutionBackend() = default;

  virtual std::string_view name() const = 0;
  virtual BackendKind kind() const = 0;

  const Database& database() const { return *db_; }
  const Catalog& catalog() const { return db_->catalog(); }

  /// Parameterizes `query`, then returns the cached plan for its shape or
  /// compiles one. The pointer stays valid for the backend's lifetime.
  /// `params_out` (optional) receives the extracted literal bindings.
  Result<PreparedQuery*> Prepare(const Ast& query,
                                 std::vector<Value>* params_out = nullptr);

  /// Same, for a caller that already parameterized (the interactive runtime
  /// classifies transitions on the shape first) — skips the redundant
  /// ParameterizeQuery + canonical-SQL unparse on the interaction hot path.
  Result<PreparedQuery*> PrepareShape(const ParameterizedQuery& pq);

  /// Prepare + Execute with the query's own literals.
  Result<Table> Execute(const Ast& query);

  /// Runs `execute`, one full or delta execution of a plan this backend
  /// prepared, and returns its result. Every execution goes through here,
  /// so `stats().executions` and `ifgen_backend_execute_duration_us` count
  /// the same executions.
  template <class Fn>
  auto RunExecution(Fn&& execute) -> decltype(execute()) {
    const ObsHandles& obs = CountExecution();
    obs::TraceSpan span("engine.execute", "engine");
    Stopwatch watch;
    auto result = execute();
    obs.execute_us->Observe(static_cast<double>(watch.ElapsedMicros()));
    return result;
  }

  /// Parse + Execute.
  Result<Table> ExecuteSql(std::string_view sql);

  BackendStats stats() const;

 protected:
  /// Compiles a parameterized shape into a plan. Called once per shape
  /// (subsequent Prepare calls hit the cache).
  virtual Result<std::unique_ptr<PreparedQuery>> Compile(
      const ParameterizedQuery& pq) = 0;

 private:
  /// Registry handles labeled `{backend=<kind name>}`, resolved on first use
  /// (`kind()` is virtual, so this cannot run in the constructor).
  struct ObsHandles {
    obs::Counter* prepares = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* executions = nullptr;
    obs::Histogram* execute_us = nullptr;
  };
  const ObsHandles& ObsMetrics() const;
  /// Counts one execution; returns the handles that time it.
  const ObsHandles& CountExecution();

  const Database* db_;
  SqlKeyedCache<PreparedQuery> plans_;
  std::atomic<size_t> executions_{0};
  mutable std::once_flag obs_once_;
  mutable ObsHandles obs_;
};

/// Constructs a backend of the given kind over `db` (not owned; must
/// outlive the backend). kSqlite ingests the workload tables into a
/// `:memory:` store and errors when the build lacks IFGEN_WITH_SQLITE.
Result<std::unique_ptr<ExecutionBackend>> CreateBackend(BackendKind kind,
                                                        const Database* db);

// ---------------------------------------------------------------------------
// Result-identity helpers (tests and benches).

/// Rows reordered into a canonical order: lexicographic Value::Compare over
/// all columns, left to right.
Table SortedByAllColumns(const Table& t);

/// OK when the tables have the same column names/arity and the same rows
/// after canonical sorting; numeric cells compare with relative tolerance
/// `eps` (aggregation order may legitimately differ between backends).
Status TablesEquivalent(const Table& a, const Table& b, double eps = 1e-9);

/// Runs every query on every backend kind and checks all results against
/// the first kind's (conventionally the reference executor).
Status VerifyBackendsAgree(const Database& db, const std::vector<std::string>& sqls,
                           const std::vector<BackendKind>& kinds);

}  // namespace ifgen
