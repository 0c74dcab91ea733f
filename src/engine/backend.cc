#include "engine/backend.h"

#include <algorithm>
#include <cmath>

#include "engine/columnar/columnar_backend.h"
#include "engine/exec_util.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "util/timer.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "util/string_util.h"

#ifdef IFGEN_WITH_SQLITE
#include "engine/sqlite/sqlite_backend.h"
#endif

namespace ifgen {

std::string_view BackendKindName(BackendKind k) {
  switch (k) {
    case BackendKind::kReference:
      return "reference";
    case BackendKind::kColumnar:
      return "columnar";
    case BackendKind::kSqlite:
      return "sqlite";
  }
  return "?";
}

bool BackendAvailable(BackendKind k) {
#ifdef IFGEN_WITH_SQLITE
  (void)k;
  return true;
#else
  return k != BackendKind::kSqlite;
#endif
}

std::vector<BackendKind> AvailableBackends() {
  std::vector<BackendKind> kinds = {BackendKind::kReference, BackendKind::kColumnar};
  if (BackendAvailable(BackendKind::kSqlite)) kinds.push_back(BackendKind::kSqlite);
  return kinds;
}

// ---------------------------------------------------------------------------
// Parameterization.

namespace {

bool IsLiteralExpr(const Ast& e) {
  return e.sym == Symbol::kNumExpr || e.sym == Symbol::kStrExpr;
}

Result<Value> LiteralValue(const Ast& e) {
  if (e.sym == Symbol::kStrExpr) return Value(e.value);
  if (e.sym != Symbol::kNumExpr) {
    return Status::Invalid("not a literal: " + std::string(SymbolName(e.sym)));
  }
  // Same int/double split as the executor's row evaluator.
  return ParseNumericLiteral(e.value);
}

/// Replaces every literal in the subtree with a kParam placeholder.
Status ParameterizeExpr(Ast* e, std::vector<Value>* params) {
  if (IsLiteralExpr(*e)) {
    IFGEN_ASSIGN_OR_RETURN(Value v, LiteralValue(*e));
    params->push_back(std::move(v));
    *e = Ast(Symbol::kParam, std::to_string(params->size()));
    return Status::OK();
  }
  for (Ast& c : e->children) {
    IFGEN_RETURN_NOT_OK(ParameterizeExpr(&c, params));
  }
  return Status::OK();
}

/// Spells a parameter back as SQL literal text (inverse of LiteralValue up
/// to formatting). Doubles always carry a '.' or exponent so re-parsing
/// keeps the type.
Result<std::string> LiteralText(const Value& v) {
  if (v.is_int()) return std::to_string(v.AsInt());
  if (v.is_double()) {
    std::string s = StrFormat("%.17g", v.AsDouble());
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    return s;
  }
  if (v.is_string()) return v.AsString();
  return Status::Invalid("cannot spell NULL parameter as a literal");
}

Status BindExpr(Ast* e, const std::vector<Value>& params) {
  if (e->sym == Symbol::kParam) {
    IFGEN_ASSIGN_OR_RETURN(size_t idx, ParseParamMarker(e->value, params.size()));
    const Value& v = params[idx];
    IFGEN_ASSIGN_OR_RETURN(std::string text, LiteralText(v));
    *e = Ast(v.is_string() ? Symbol::kStrExpr : Symbol::kNumExpr, std::move(text));
    return Status::OK();
  }
  for (Ast& c : e->children) {
    IFGEN_RETURN_NOT_OK(BindExpr(&c, params));
  }
  return Status::OK();
}

}  // namespace

Result<ParameterizedQuery> ParameterizeQuery(const Ast& query) {
  if (query.sym != Symbol::kSelect) {
    return Status::Invalid("ParameterizeQuery expects a Select root");
  }
  ParameterizedQuery pq;
  pq.shape = query;
  for (Ast& clause : pq.shape.children) {
    switch (clause.sym) {
      case Symbol::kWhere:
        for (Ast& c : clause.children) {
          IFGEN_RETURN_NOT_OK(ParameterizeExpr(&c, &pq.params));
        }
        break;
      case Symbol::kTop:
      case Symbol::kLimit: {
        // Clause counts live in the node's value, not in a child literal.
        // Rejects already-parameterized "?N" shapes: re-parameterizing a
        // shape is a caller error, not a crash.
        IFGEN_ASSIGN_OR_RETURN(int64_t count, ParseCountLiteral(clause.value));
        pq.params.push_back(Value(count));
        clause.value = "?" + std::to_string(pq.params.size());
        break;
      }
      default:
        break;  // SELECT/GROUP BY/ORDER BY literals shape the output schema
    }
  }
  IFGEN_ASSIGN_OR_RETURN(pq.key, Unparse(pq.shape));
  return pq;
}

Result<Ast> BindParams(const Ast& shape, const std::vector<Value>& params) {
  Ast bound = shape;
  for (Ast& clause : bound.children) {
    if ((clause.sym == Symbol::kTop || clause.sym == Symbol::kLimit) &&
        !clause.value.empty() && clause.value[0] == '?') {
      IFGEN_ASSIGN_OR_RETURN(size_t idx,
                             ParseParamMarker(clause.value, params.size()));
      if (!params[idx].is_int()) {
        return Status::Invalid("TOP/LIMIT parameter must be an integer");
      }
      clause.value = std::to_string(params[idx].AsInt());
      continue;
    }
    IFGEN_RETURN_NOT_OK(BindExpr(&clause, params));
  }
  return bound;
}

// ---------------------------------------------------------------------------
// ExecutionBackend base.

Result<PreparedQuery*> ExecutionBackend::Prepare(const Ast& query,
                                                 std::vector<Value>* params_out) {
  IFGEN_ASSIGN_OR_RETURN(ParameterizedQuery pq, ParameterizeQuery(query));
  IFGEN_ASSIGN_OR_RETURN(PreparedQuery * plan, PrepareShape(pq));
  if (params_out != nullptr) *params_out = std::move(pq.params);
  return plan;
}

const ExecutionBackend::ObsHandles& ExecutionBackend::ObsMetrics() const {
  std::call_once(obs_once_, [this] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    const obs::LabelSet labels = {{"backend", std::string(BackendKindName(kind()))}};
    obs_.prepares = reg.GetCounter("ifgen_backend_prepares_total",
                                   "Parameterized shapes compiled into plans", labels);
    obs_.plan_cache_hits =
        reg.GetCounter("ifgen_backend_plan_cache_hits_total",
                       "PrepareShape calls served from the plan cache", labels);
    obs_.executions = reg.GetCounter("ifgen_backend_executions_total",
                                     "Prepared-plan executions, full or delta", labels);
    // 1us..~8.4s in x2 steps.
    obs::HistogramOptions opts;
    opts.first_bound = 1.0;
    opts.growth = 2.0;
    opts.num_buckets = 24;
    obs_.execute_us = reg.GetHistogram("ifgen_backend_execute_duration_us",
                                       "Latency of plan executions (microseconds)",
                                       opts, labels);
  });
  return obs_;
}

Result<PreparedQuery*> ExecutionBackend::PrepareShape(const ParameterizedQuery& pq) {
  if (std::shared_ptr<PreparedQuery> hit = plans_.Lookup(pq.key)) {
    ObsMetrics().plan_cache_hits->Inc();
    return hit.get();
  }
  obs::TraceSpan span("engine.prepare", "engine");
  IFGEN_ASSIGN_OR_RETURN(std::unique_ptr<PreparedQuery> plan, Compile(pq));
  ObsMetrics().prepares->Inc();
  std::shared_ptr<PreparedQuery> resident =
      plans_.Insert(pq.key, std::shared_ptr<PreparedQuery>(std::move(plan)));
  return resident.get();
}

Result<Table> ExecutionBackend::Execute(const Ast& query) {
  std::vector<Value> params;
  IFGEN_ASSIGN_OR_RETURN(PreparedQuery * plan, Prepare(query, &params));
  return RunExecution([&] { return plan->Execute(params); });
}

const ExecutionBackend::ObsHandles& ExecutionBackend::CountExecution() {
  executions_.fetch_add(1, std::memory_order_relaxed);
  const ObsHandles& obs = ObsMetrics();
  obs.executions->Inc();
  return obs;
}

Result<Table> ExecutionBackend::ExecuteSql(std::string_view sql) {
  IFGEN_ASSIGN_OR_RETURN(Ast q, ParseQuery(sql));
  return Execute(q);
}

BackendStats ExecutionBackend::stats() const {
  BackendStats s;
  s.prepares = plans_.misses();
  s.plan_cache_hits = plans_.hits();
  s.executions = executions_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Reference backend: the row-at-a-time executor behind the interface.

namespace {

class ReferencePreparedQuery : public PreparedQuery {
 public:
  ReferencePreparedQuery(std::string key, size_t num_params, Ast shape,
                         const Executor* executor)
      : PreparedQuery(std::move(key), num_params),
        shape_(std::move(shape)),
        executor_(executor) {}

  Result<Table> Execute(const std::vector<Value>& params) override {
    if (params.size() != num_params()) {
      return Status::Invalid("expected " + std::to_string(num_params()) +
                             " parameters, got " + std::to_string(params.size()));
    }
    return executor_->Execute(shape_, params);
  }

 private:
  Ast shape_;
  const Executor* executor_;
};

class ReferenceBackend : public ExecutionBackend {
 public:
  explicit ReferenceBackend(const Database* db)
      : ExecutionBackend(db), executor_(db) {}

  std::string_view name() const override { return "reference"; }
  BackendKind kind() const override { return BackendKind::kReference; }

 protected:
  Result<std::unique_ptr<PreparedQuery>> Compile(
      const ParameterizedQuery& pq) override {
    return std::unique_ptr<PreparedQuery>(new ReferencePreparedQuery(
        pq.key, pq.params.size(), pq.shape, &executor_));
  }

 private:
  Executor executor_;
};

}  // namespace

Result<std::unique_ptr<ExecutionBackend>> CreateBackend(BackendKind kind,
                                                        const Database* db) {
  if (db == nullptr) return Status::Invalid("CreateBackend: null database");
  switch (kind) {
    case BackendKind::kReference:
      return std::unique_ptr<ExecutionBackend>(new ReferenceBackend(db));
    case BackendKind::kColumnar:
      return MakeColumnarBackend(db);
    case BackendKind::kSqlite:
#ifdef IFGEN_WITH_SQLITE
      return MakeSqliteBackend(db);
#else
      return Status::Unimplemented(
          "SQLite backend not compiled in (configure with -DIFGEN_WITH_SQLITE=ON)");
#endif
  }
  return Status::Invalid("unknown backend kind");
}

// ---------------------------------------------------------------------------
// Result-identity helpers.

Table SortedByAllColumns(const Table& t) {
  std::vector<size_t> idx(t.num_rows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      int cmp = t.At(a, c).Compare(t.At(b, c));
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return t.Gather(idx);
}

namespace {

bool CellsMatch(const Value& a, const Value& b, double eps) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= eps * scale;
  }
  if (a.is_string() && b.is_string()) return a.AsString() == b.AsString();
  return false;
}

}  // namespace

Status TablesEquivalent(const Table& a, const Table& b, double eps) {
  if (a.num_columns() != b.num_columns()) {
    return Status::Invalid(StrFormat("column count %zu != %zu", a.num_columns(),
                                     b.num_columns()));
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().columns[c].name != b.schema().columns[c].name) {
      return Status::Invalid("column name mismatch at " + std::to_string(c) + ": " +
                             a.schema().columns[c].name + " vs " +
                             b.schema().columns[c].name);
    }
  }
  if (a.num_rows() != b.num_rows()) {
    return Status::Invalid(StrFormat("row count %zu != %zu", a.num_rows(),
                                     b.num_rows()));
  }
  Table sa = SortedByAllColumns(a);
  Table sb = SortedByAllColumns(b);
  for (size_t r = 0; r < sa.num_rows(); ++r) {
    for (size_t c = 0; c < sa.num_columns(); ++c) {
      if (!CellsMatch(sa.At(r, c), sb.At(r, c), eps)) {
        return Status::Invalid(StrFormat(
            "cell (%zu, %zu) mismatch after canonical sort: %s vs %s", r, c,
            sa.At(r, c).ToString().c_str(), sb.At(r, c).ToString().c_str()));
      }
    }
  }
  return Status::OK();
}

Status VerifyBackendsAgree(const Database& db, const std::vector<std::string>& sqls,
                           const std::vector<BackendKind>& kinds) {
  if (kinds.size() < 2) return Status::OK();
  std::vector<std::unique_ptr<ExecutionBackend>> backends;
  for (BackendKind k : kinds) {
    IFGEN_ASSIGN_OR_RETURN(std::unique_ptr<ExecutionBackend> b,
                           CreateBackend(k, &db));
    backends.push_back(std::move(b));
  }
  for (const std::string& sql : sqls) {
    IFGEN_ASSIGN_OR_RETURN(Table expected, backends[0]->ExecuteSql(sql));
    for (size_t i = 1; i < backends.size(); ++i) {
      IFGEN_ASSIGN_OR_RETURN(Table got, backends[i]->ExecuteSql(sql));
      Status eq = TablesEquivalent(expected, got);
      if (!eq.ok()) {
        return Status::Invalid(std::string(backends[i]->name()) + " disagrees with " +
                               std::string(backends[0]->name()) + " on \"" + sql +
                               "\": " + eq.ToString());
      }
    }
  }
  return Status::OK();
}

}  // namespace ifgen
