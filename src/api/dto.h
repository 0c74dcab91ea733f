#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/options.h"
#include "engine/table.h"
#include "runtime/interactive.h"
#include "search/search_common.h"
#include "util/json.h"
#include "util/status.h"

namespace ifgen {
namespace api {

/// \brief The versioned (v1) transport-agnostic API surface: typed DTOs
/// with an exact JSON codec.
///
/// Contract, enforced by tests/api_test.cc:
///  - `T::FromJson(x.ToJson()) == x` for every DTO `x` (numeric kinds
///    included — table cells survive a wire hop bit-identically).
///  - Decoding is strict: unknown fields, wrong-kind fields, and malformed
///    documents are structured errors (InvalidArgument / ParseError /
///    OutOfRange), never crashes — `ErrorBody` carries the stable
///    `StatusCodeName` string for every failure that crosses a transport.
///  - DTOs are flat and versioned as a set: breaking changes mean a /v2.
///
/// The HTTP front-end (src/http) is a thin adapter over these types; any
/// other transport (gRPC, a message queue, in-process embedding) reuses
/// them unchanged.

// ---------------------------------------------------------------------------
// Field tables.
//
// Every table DTO declares its wire fields once, in `static constexpr auto
// Fields()`: a tuple of wire::Field / wire::Group descriptors in wire
// order. One generic codec (api/codec.h) derives ToJson, strict FromJson
// and operator== from that table, picking each field's kind from the
// member type: string, int64 (with an inclusive range), double, bool,
// string array, raw JsonValue, nested DTO, vector of DTOs, Value rows, and
// JobResultDto (appended to the enclosing object). Adding a wire field
// means adding one table line.

namespace wire {

/// \brief One wire field: its JSON name, the member it maps to, and the
/// decode constraints.
template <typename T, typename M>
struct FieldSpec {
  const char* name;
  M T::*member;
  bool required = false;
  int64_t lo = INT64_MIN;  ///< int64 members: inclusive decode range
  int64_t hi = INT64_MAX;
  /// Vector-of-DTO members: the wrong-kind error reads "X.f must be an
  /// array" (the RPC payloads' wording) instead of "X.f: must be an array".
  bool bare_array_error = false;

  /// Decoding fails when the field is absent.
  constexpr FieldSpec Required() const {
    FieldSpec f = *this;
    f.required = true;
    return f;
  }
  /// int64 members: decoding rejects values below `min` as OutOfRange.
  constexpr FieldSpec Min(int64_t min) const {
    FieldSpec f = *this;
    f.lo = min;
    return f;
  }
  /// int64 members: decoding rejects values above `max` as OutOfRange.
  constexpr FieldSpec Max(int64_t max) const {
    FieldSpec f = *this;
    f.hi = max;
    return f;
  }
  constexpr FieldSpec BareArrayError() const {
    FieldSpec f = *this;
    f.bare_array_error = true;
    return f;
  }
};

template <typename T, typename M>
constexpr FieldSpec<T, M> Field(const char* name, M T::*member) {
  return {name, member};
}

/// \brief A named JSON sub-object whose members are fields of the
/// enclosing DTO (StatsResponse's "jobs", "sessions", ...).
template <typename... Fs>
struct GroupSpec {
  const char* name;
  std::tuple<Fs...> fields;
};

template <typename... Fs>
constexpr GroupSpec<Fs...> Group(const char* name, Fs... fields) {
  return {name, std::tuple<Fs...>(fields...)};
}

}  // namespace wire

// ---------------------------------------------------------------------------
// Error model.

/// \brief The one wire shape every failed call returns, on every transport.
///
/// `retryable` is the client's backpressure signal: true exactly for
/// transient failures — ResourceExhausted (429, bounded admission) and
/// Unavailable (503, worker unreachable/draining) — where the same request
/// retried after a backoff is expected to succeed. All other codes are hard
/// failures; retrying without changing the request will fail again. The bit
/// is derived from `code` on both encode and decode, so it survives a wire
/// hop without becoming an independent source of truth.
struct ErrorBody {
  std::string code;  ///< stable StatusCodeName string ("InvalidArgument")
  std::string message;
  bool retryable = false;  ///< transient (429/503): retry after backoff

  static ErrorBody FromStatus(const Status& s);
  /// Inverse mapping; an unrecognized code becomes kInternal.
  Status ToStatus() const;
  /// The retry classification FromStatus applies.
  static bool RetryableCode(StatusCode code);

  /// `retryable` is optional on decode (absent = not retryable) for
  /// back-compat with pre-retryable payloads; every v1 encoder emits it.
  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("code", &ErrorBody::code).Required(),
                           wire::Field("message", &ErrorBody::message).Required(),
                           wire::Field("retryable", &ErrorBody::retryable));
  }
  JsonValue ToJson() const;
  static Result<ErrorBody> FromJson(const JsonValue& v);
  bool operator==(const ErrorBody& o) const;
};

// ---------------------------------------------------------------------------
// Generation.

/// \brief Flat, versioned generator configuration with defaults — the wire
/// face of GeneratorOptions (plus the paper-relevant search/parallel/
/// backend knobs), kept deliberately flat so clients never mirror internal
/// struct nesting.
struct ApiOptions {
  std::string algorithm = "mcts";
  std::string backend = "columnar";
  std::string parallel_mode = "root";  ///< the only mode; "leaf" is rejected
  int64_t time_budget_ms = 2000;
  int64_t max_iterations = 0;
  int64_t seed = 42;
  int64_t screen_width = 100;
  int64_t screen_height = 40;
  int64_t num_threads = 1;
  int64_t k_assignments = 8;
  bool use_priors = true;
  bool progressive_widening = true;
  bool delta_cost_eval = true;
  /// Persistent experience (GeneratorOptions::experience): the job may
  /// warm-start from the service's on-disk experience store and records its
  /// discoveries back (src/learn/). Switches cost sampling to the
  /// state-keyed mode, so seeding preserves bit-identity. Default off: a
  /// request without the flag is unchanged.
  bool experience = false;
  /// Anytime time control (search/timeman.h). deadline_ms: wall-clock
  /// deadline for the whole call, 0 = off; target_cost: stop once the best
  /// cost reaches it, 0 = off; plateau_fraction: stop when the best cost
  /// has not improved for this fraction of the elapsed time, 0 = off.
  int64_t deadline_ms = 0;
  double target_cost = 0.0;
  double plateau_fraction = 0.0;

  /// Validates names and ranges (unknown algorithm/backend/mode →
  /// InvalidArgument; non-positive screen, zero budget AND zero iterations,
  /// absurd thread counts → OutOfRange) and maps onto the internal options.
  Result<GeneratorOptions> ToGeneratorOptions() const;
  static ApiOptions FromGeneratorOptions(const GeneratorOptions& o);

  static constexpr auto Fields() {
    using A = ApiOptions;
    return std::make_tuple(
        wire::Field("algorithm", &A::algorithm), wire::Field("backend", &A::backend),
        wire::Field("parallel_mode", &A::parallel_mode),
        wire::Field("time_budget_ms", &A::time_budget_ms),
        wire::Field("max_iterations", &A::max_iterations), wire::Field("seed", &A::seed),
        wire::Field("screen_width", &A::screen_width),
        wire::Field("screen_height", &A::screen_height),
        wire::Field("num_threads", &A::num_threads),
        wire::Field("k_assignments", &A::k_assignments),
        wire::Field("use_priors", &A::use_priors),
        wire::Field("progressive_widening", &A::progressive_widening),
        wire::Field("delta_cost_eval", &A::delta_cost_eval),
        wire::Field("experience", &A::experience),
        wire::Field("deadline_ms", &A::deadline_ms),
        wire::Field("target_cost", &A::target_cost),
        wire::Field("plateau_fraction", &A::plateau_fraction));
  }
  JsonValue ToJson() const;
  static Result<ApiOptions> FromJson(const JsonValue& v);
  bool operator==(const ApiOptions& o) const;
};

/// \brief POST /v1/generate: a query log (or a named workload whose log is
/// used when `sqls` is empty) plus options.
struct GenerateRequest {
  std::string workload;  ///< attaches sessions to this store; may be ""
  std::vector<std::string> sqls;
  ApiOptions options;

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("workload", &GenerateRequest::workload),
                           wire::Field("sqls", &GenerateRequest::sqls),
                           wire::Field("options", &GenerateRequest::options));
  }
  JsonValue ToJson() const;
  static Result<GenerateRequest> FromJson(const JsonValue& v);
  bool operator==(const GenerateRequest& o) const;
};

/// \brief 202 body of POST /v1/generate: the async job handle.
struct GenerateAccepted {
  std::string job_id;
  std::string state;  ///< JobStateName at admission ("queued" or "done")

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("job_id", &GenerateAccepted::job_id).Required(),
                           wire::Field("state", &GenerateAccepted::state).Required());
  }
  JsonValue ToJson() const;
  static Result<GenerateAccepted> FromJson(const JsonValue& v);
  bool operator==(const GenerateAccepted& o) const;
};

/// \brief One (time, iteration, cost) sample of the best-so-far curve —
/// the anytime view of a finished search.
struct TracePoint {
  int64_t ms = 0;
  int64_t iteration = 0;
  double cost = 0.0;

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("ms", &TracePoint::ms),
                           wire::Field("iteration", &TracePoint::iteration),
                           wire::Field("cost", &TracePoint::cost));
  }
  JsonValue ToJson() const;
  static Result<TracePoint> FromJson(const JsonValue& v);
  bool operator==(const TracePoint& o) const;
};

/// \brief Search instrumentation exposed per job.
struct SearchStatsDto {
  int64_t iterations = 0;
  int64_t states_expanded = 0;
  int64_t rollouts = 0;
  int64_t elapsed_ms = 0;
  int64_t trees = 1;
  std::string stop_reason = "none";  ///< StopReasonName of why the loop ended
  std::vector<TracePoint> trace;

  static SearchStatsDto FromStats(const SearchStats& s);
  static constexpr auto Fields() {
    using S = SearchStatsDto;
    return std::make_tuple(
        wire::Field("iterations", &S::iterations),
        wire::Field("states_expanded", &S::states_expanded),
        wire::Field("rollouts", &S::rollouts), wire::Field("elapsed_ms", &S::elapsed_ms),
        wire::Field("trees", &S::trees), wire::Field("stop_reason", &S::stop_reason),
        wire::Field("trace", &S::trace));
  }
  JsonValue ToJson() const;
  static Result<SearchStatsDto> FromJson(const JsonValue& v);
  bool operator==(const SearchStatsDto& o) const;
};

/// \brief The finished-job payload: the interface spec (difftree + laid-out
/// widget tree as the core/json_export trees), its cost breakdown, and the
/// search stats.
struct GenerateResponse {
  std::string job_id;
  std::string workload;
  std::string algorithm;
  std::string backend;  ///< backend sessions over this job execute on
  double coverage = 0.0;
  JsonValue cost = JsonValue::Object();      ///< CostToJsonValue shape
  JsonValue difftree = JsonValue::Object();  ///< DiffTreeToJsonValue shape
  JsonValue widgets = JsonValue::Object();   ///< WidgetTreeToJsonValue shape
  SearchStatsDto stats;

  static constexpr auto Fields() {
    using G = GenerateResponse;
    return std::make_tuple(
        wire::Field("job_id", &G::job_id), wire::Field("workload", &G::workload),
        wire::Field("algorithm", &G::algorithm), wire::Field("backend", &G::backend),
        wire::Field("coverage", &G::coverage), wire::Field("cost", &G::cost),
        wire::Field("stats", &G::stats), wire::Field("difftree", &G::difftree),
        wire::Field("widgets", &G::widgets));
  }
  JsonValue ToJson() const;
  static Result<GenerateResponse> FromJson(const JsonValue& v);
  bool operator==(const GenerateResponse& o) const;
};

/// \brief The one terminal/partial payload structure shared by job status
/// and job progress responses: an optional GenerateResponse-shaped value
/// plus an optional ErrorBody.
///
/// Both halves are independent — a cancelled job carries the error AND the
/// best-so-far partial value when one was captured mid-run. The DTO has no
/// top-level wire object of its own: it appends to the enclosing response
/// under that response's legacy field names ("result"/"error" for
/// JobStatusResponse, "partial"/"error" for JobProgressResponse), which the
/// codec tests pin for back-compat.
struct JobResultDto {
  /// "done": the full result; "cancelled": best-so-far partial (absent on
  /// queued-phase cancels). On progress frames: the best-so-far snapshot.
  std::optional<GenerateResponse> value;
  std::optional<ErrorBody> error;  ///< state == "failed"/"cancelled"

  /// Appends `value` under `value_field` and `error` under "error" to an
  /// enclosing response object (absent halves are omitted, not null).
  void AppendToJson(JsonValue* obj, const char* value_field) const;
  /// Inverse of AppendToJson over the enclosing object's two members
  /// (null = absent).
  static Result<JobResultDto> FromFields(const JsonValue* value_json,
                                         const JsonValue* error_json);
  bool operator==(const JobResultDto& o) const {
    return value == o.value && error == o.error;
  }
};

/// \brief GET /v1/jobs/{id}: job state, phase timings, and (terminal only)
/// the result or error, serialized under "result"/"error".
struct JobStatusResponse {
  std::string job_id;
  std::string state;  ///< JobStateName
  bool cache_hit = false;
  int64_t queued_ms = 0;
  int64_t run_ms = 0;
  JobResultDto result;  ///< terminal payload; empty while queued/running

  static constexpr auto Fields() {
    using J = JobStatusResponse;
    return std::make_tuple(
        wire::Field("job_id", &J::job_id).Required(),
        wire::Field("state", &J::state).Required(),
        wire::Field("cache_hit", &J::cache_hit), wire::Field("queued_ms", &J::queued_ms),
        wire::Field("run_ms", &J::run_ms), wire::Field("result", &J::result));
  }
  JsonValue ToJson() const;
  static Result<JobStatusResponse> FromJson(const JsonValue& v);
  bool operator==(const JobStatusResponse& o) const;
};

/// \brief GET /v1/jobs/{id}/progress (long-poll) and each SSE frame of
/// GET /v1/jobs/{id}/stream: the versioned best-so-far snapshot of a job.
///
/// `version` counts published improvements (0 = none yet) and is strictly
/// increasing across frames of one job. `partial` is GenerateResponse-shaped:
/// mid-run frames carry the best difftree, its cost-so-far, and minimal
/// stats (widgets stay empty — they are materialized in the final phase);
/// the `final` frame embeds the job's full terminal result when one exists.
struct JobProgressResponse {
  std::string job_id;
  std::string state;  ///< JobStateName
  int64_t version = 0;
  bool final_frame = false;  ///< wire name "final": terminal, stream complete
  /// Best-so-far snapshot, serialized under "partial"/"error"; terminal
  /// failed/cancelled frames carry the job's error alongside any partial.
  JobResultDto result;

  static constexpr auto Fields() {
    using J = JobProgressResponse;
    return std::make_tuple(wire::Field("job_id", &J::job_id).Required(),
                           wire::Field("state", &J::state).Required(),
                           wire::Field("version", &J::version),
                           wire::Field("final", &J::final_frame),
                           wire::Field("partial", &J::result));
  }
  JsonValue ToJson() const;
  static Result<JobProgressResponse> FromJson(const JsonValue& v);
  bool operator==(const JobProgressResponse& o) const;
};

// ---------------------------------------------------------------------------
// Sessions.

/// \brief POST /v1/sessions: opens an interactive runtime over a finished
/// job. `workload`/`backend` default to the job's own.
struct SessionOpenRequest {
  std::string job_id;
  std::string workload;  ///< override; "" = the job's workload
  std::string backend;   ///< override; "" = the job's backend

  static constexpr auto Fields() {
    using S = SessionOpenRequest;
    return std::make_tuple(wire::Field("job_id", &S::job_id).Required(),
                           wire::Field("workload", &S::workload),
                           wire::Field("backend", &S::backend));
  }
  JsonValue ToJson() const;
  static Result<SessionOpenRequest> FromJson(const JsonValue& v);
  bool operator==(const SessionOpenRequest& o) const;
};

/// \brief A result table on the wire: column names plus rows of exact
/// engine scalars.
struct TableDto {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  static TableDto FromTable(const Table& t);
  /// Decoding also checks that every row has one cell per column.
  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("columns", &TableDto::columns),
                           wire::Field("rows", &TableDto::rows));
  }
  JsonValue ToJson() const;
  static Result<TableDto> FromJson(const JsonValue& v);
  bool operator==(const TableDto& o) const;
};

struct SessionOpenResponse {
  std::string session_id;
  std::string sql;      ///< current query of the fresh session
  int64_t version = 0;  ///< feed version the `table` snapshot corresponds to
  TableDto table;
  JsonValue widgets = JsonValue::Object();

  static constexpr auto Fields() {
    using S = SessionOpenResponse;
    return std::make_tuple(wire::Field("session_id", &S::session_id).Required(),
                           wire::Field("sql", &S::sql), wire::Field("version", &S::version),
                           wire::Field("table", &S::table),
                           wire::Field("widgets", &S::widgets));
  }
  JsonValue ToJson() const;
  static Result<SessionOpenResponse> FromJson(const JsonValue& v);
  bool operator==(const SessionOpenResponse& o) const;
};

/// \brief POST /v1/sessions/{id}/events: one widget manipulation. `kind`
/// selects the fields that apply; fields outside the kind's set are
/// rejected (not ignored) so a malformed client fails loudly.
///
///   {"kind":"set_any","choice_id":3,"option_index":1}
///   {"kind":"set_opt","choice_id":4,"present":false}
///   {"kind":"set_multi","choice_id":2,"count":2}
///   {"kind":"load_query","sql":"SELECT ..."}
struct WidgetEventRequest {
  std::string kind;
  int64_t choice_id = -1;
  int64_t option_index = -1;
  /// Capped at InterfaceSession::kMaxMultiCount by ApplyEvent — it sizes
  /// the repeated-clause allocation, so it gets a domain bound, not just
  /// the int range the ids get.
  int64_t count = 0;
  bool present = false;
  std::string sql;

  JsonValue ToJson() const;
  static Result<WidgetEventRequest> FromJson(const JsonValue& v);
  bool operator==(const WidgetEventRequest& o) const;
};

/// \brief Wire form of InteractiveRuntime::StepReport.
struct StepReportDto {
  std::string transition;  ///< TransitionClassName
  bool incremental = false;
  bool from_cache = false;
  int64_t widgets_changed = 0;
  double interaction_cost = 0.0;
  double navigation_cost = 0.0;
  int64_t rows = 0;
  int64_t rows_added = 0;
  int64_t rows_removed = 0;
  int64_t rows_updated = 0;

  static StepReportDto FromReport(const InteractiveRuntime::StepReport& r);
  static constexpr auto Fields() {
    using S = StepReportDto;
    return std::make_tuple(
        wire::Field("transition", &S::transition),
        wire::Field("incremental", &S::incremental),
        wire::Field("from_cache", &S::from_cache),
        wire::Field("widgets_changed", &S::widgets_changed),
        wire::Field("interaction_cost", &S::interaction_cost),
        wire::Field("navigation_cost", &S::navigation_cost), wire::Field("rows", &S::rows),
        wire::Field("rows_added", &S::rows_added),
        wire::Field("rows_removed", &S::rows_removed),
        wire::Field("rows_updated", &S::rows_updated));
  }
  JsonValue ToJson() const;
  static Result<StepReportDto> FromJson(const JsonValue& v);
  bool operator==(const StepReportDto& o) const;
};

/// \brief Wire form of InteractiveRuntime::RowChange ("add"/"remove"/
/// "update"; `old_row` is present for updates only).
struct RowChangeDto {
  std::string kind;
  std::vector<Value> row;
  std::vector<Value> old_row;

  static RowChangeDto FromChange(const InteractiveRuntime::RowChange& c);
  JsonValue ToJson() const;
  static Result<RowChangeDto> FromJson(const JsonValue& v);
  bool operator==(const RowChangeDto& o) const {
    return kind == o.kind && row == o.row && old_row == o.old_row;
  }
};

/// \brief Wire form of InteractiveRuntime::ChangeBatch: the row diffs from
/// `from_version` to `to_version`. Applying them to the client's table at
/// `from_version` reproduces the result at `to_version` as a multiset —
/// the feed contract documented in docs/interactive.md.
struct ChangeBatchDto {
  int64_t from_version = 0;
  int64_t to_version = 0;
  StepReportDto last_step;
  std::vector<RowChangeDto> changes;

  static ChangeBatchDto FromBatch(const InteractiveRuntime::ChangeBatch& b);
  static constexpr auto Fields() {
    using C = ChangeBatchDto;
    return std::make_tuple(wire::Field("from_version", &C::from_version),
                           wire::Field("to_version", &C::to_version),
                           wire::Field("last_step", &C::last_step),
                           wire::Field("changes", &C::changes));
  }
  JsonValue ToJson() const;
  static Result<ChangeBatchDto> FromJson(const JsonValue& v);
  bool operator==(const ChangeBatchDto& o) const;
};

/// \brief Response to a widget event: the step's report plus its own diff
/// batch, spanning exactly that step's versions.
struct StepResponse {
  std::string session_id;
  std::string sql;
  int64_t version = 0;
  StepReportDto report;
  ChangeBatchDto batch;

  static constexpr auto Fields() {
    using S = StepResponse;
    return std::make_tuple(wire::Field("session_id", &S::session_id).Required(),
                           wire::Field("sql", &S::sql), wire::Field("version", &S::version),
                           wire::Field("report", &S::report),
                           wire::Field("batch", &S::batch));
  }
  JsonValue ToJson() const;
  static Result<StepResponse> FromJson(const JsonValue& v);
  bool operator==(const StepResponse& o) const;
};

// ---------------------------------------------------------------------------
// Introspection.

struct TableInfo {
  std::string name;
  int64_t rows = 0;
  int64_t columns = 0;

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("name", &TableInfo::name).Required(),
                           wire::Field("rows", &TableInfo::rows),
                           wire::Field("columns", &TableInfo::columns));
  }
  JsonValue ToJson() const;
  static Result<TableInfo> FromJson(const JsonValue& v);
  bool operator==(const TableInfo& o) const;
};

struct WorkloadInfo {
  std::string name;
  int64_t queries = 0;  ///< size of the workload's example log
  std::vector<TableInfo> tables;

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("name", &WorkloadInfo::name).Required(),
                           wire::Field("queries", &WorkloadInfo::queries),
                           wire::Field("tables", &WorkloadInfo::tables));
  }
  JsonValue ToJson() const;
  static Result<WorkloadInfo> FromJson(const JsonValue& v);
  bool operator==(const WorkloadInfo& o) const;
};

/// \brief GET /v1/catalog: what this server can generate against.
struct CatalogResponse {
  std::vector<WorkloadInfo> workloads;
  std::vector<std::string> backends;  ///< compiled-in BackendKindNames

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("workloads", &CatalogResponse::workloads),
                           wire::Field("backends", &CatalogResponse::backends));
  }
  JsonValue ToJson() const;
  static Result<CatalogResponse> FromJson(const JsonValue& v);
  bool operator==(const CatalogResponse& o) const;
};

struct BackendStatsDto {
  std::string workload;
  std::string backend;
  int64_t prepares = 0;
  int64_t plan_cache_hits = 0;
  int64_t executions = 0;

  static constexpr auto Fields() {
    using B = BackendStatsDto;
    return std::make_tuple(wire::Field("workload", &B::workload),
                           wire::Field("backend", &B::backend).Required(),
                           wire::Field("prepares", &B::prepares),
                           wire::Field("plan_cache_hits", &B::plan_cache_hits),
                           wire::Field("executions", &B::executions));
  }
  JsonValue ToJson() const;
  static Result<BackendStatsDto> FromJson(const JsonValue& v);
  bool operator==(const BackendStatsDto& o) const;
};

/// \brief One worker's row in `/v1/cluster` and `stats.cluster.workers[]`:
/// identity, health, and job/RPC counters as last observed by the router.
struct WorkerStatsDto {
  int64_t worker = 0;   ///< index in the cluster ring
  std::string address;  ///< "host:port" of the worker's RPC listener
  bool healthy = true;
  bool draining = false;
  int64_t jobs_submitted = 0;
  int64_t jobs_executed = 0;
  int64_t jobs_pending = 0;
  int64_t sessions_active = 0;
  int64_t rpcs = 0;          ///< RPCs the router sent this worker
  int64_t rpc_failures = 0;  ///< transport-level failures (marks unhealthy)
  int64_t reconnects = 0;    ///< successful health-probe recoveries

  static constexpr auto Fields() {
    using W = WorkerStatsDto;
    return std::make_tuple(
        wire::Field("worker", &W::worker).Required().Min(0),
        wire::Field("address", &W::address).Required(),
        wire::Field("healthy", &W::healthy), wire::Field("draining", &W::draining),
        wire::Field("jobs_submitted", &W::jobs_submitted),
        wire::Field("jobs_executed", &W::jobs_executed),
        wire::Field("jobs_pending", &W::jobs_pending),
        wire::Field("sessions_active", &W::sessions_active), wire::Field("rpcs", &W::rpcs),
        wire::Field("rpc_failures", &W::rpc_failures),
        wire::Field("reconnects", &W::reconnects));
  }
  JsonValue ToJson() const;
  static Result<WorkerStatsDto> FromJson(const JsonValue& v);
  bool operator==(const WorkerStatsDto& o) const;
};

/// \brief GET /v1/cluster: serving topology. `mode` is "single" for an
/// in-process frontend (workers empty) and "cluster" for a router.
struct ClusterResponse {
  std::string mode = "single";
  std::vector<WorkerStatsDto> workers;

  static constexpr auto Fields() {
    return std::make_tuple(wire::Field("mode", &ClusterResponse::mode).Required(),
                           wire::Field("workers", &ClusterResponse::workers));
  }
  JsonValue ToJson() const;
  static Result<ClusterResponse> FromJson(const JsonValue& v);
  bool operator==(const ClusterResponse& o) const;
};

/// \brief GET /v1/stats: nested per-component objects — `jobs`, `sessions`,
/// `runtime`, `backends[]`, and `cluster.workers[]` (empty in single-process
/// mode).
struct StatsResponse {
  int64_t jobs_submitted = 0;
  int64_t jobs_executed = 0;
  int64_t jobs_pending = 0;
  int64_t job_cache_hits = 0;
  int64_t sessions_opened = 0;
  int64_t sessions_active = 0;
  int64_t sessions_expired = 0;  ///< TTL/capacity evictions
  /// InteractiveRuntime counters summed over the currently open sessions.
  int64_t steps = 0;
  int64_t noops = 0;
  int64_t result_cache_hits = 0;
  int64_t delta_execs = 0;
  int64_t retruncates = 0;
  int64_t full_execs = 0;
  int64_t fallbacks = 0;
  std::vector<BackendStatsDto> backends;
  /// Experience-store telemetry (src/learn/); all zero when the service
  /// runs without a configured store.
  int64_t learn_store_entries = 0;
  int64_t learn_hits = 0;
  int64_t learn_misses = 0;
  int64_t learn_seeded = 0;
  int64_t learn_recorded = 0;
  int64_t learn_saves = 0;
  int64_t learn_loads = 0;
  /// Per-worker rows when served by a ClusterRouter; empty in-process.
  std::vector<WorkerStatsDto> cluster_workers;

  static constexpr auto Fields() {
    using S = StatsResponse;
    return std::make_tuple(
        wire::Group("jobs", wire::Field("submitted", &S::jobs_submitted),
                    wire::Field("executed", &S::jobs_executed),
                    wire::Field("pending", &S::jobs_pending),
                    wire::Field("cache_hits", &S::job_cache_hits)),
        wire::Group("sessions", wire::Field("opened", &S::sessions_opened),
                    wire::Field("active", &S::sessions_active),
                    wire::Field("expired", &S::sessions_expired)),
        wire::Group("runtime", wire::Field("steps", &S::steps),
                    wire::Field("noops", &S::noops),
                    wire::Field("result_cache_hits", &S::result_cache_hits),
                    wire::Field("delta_execs", &S::delta_execs),
                    wire::Field("retruncates", &S::retruncates),
                    wire::Field("full_execs", &S::full_execs),
                    wire::Field("fallbacks", &S::fallbacks)),
        wire::Field("backends", &S::backends),
        wire::Group("learn", wire::Field("store_entries", &S::learn_store_entries),
                    wire::Field("hits", &S::learn_hits),
                    wire::Field("misses", &S::learn_misses),
                    wire::Field("seeded", &S::learn_seeded),
                    wire::Field("recorded", &S::learn_recorded),
                    wire::Field("saves", &S::learn_saves),
                    wire::Field("loads", &S::learn_loads)),
        wire::Group("cluster", wire::Field("workers", &S::cluster_workers)));
  }
  JsonValue ToJson() const;
  static Result<StatsResponse> FromJson(const JsonValue& v);
  bool operator==(const StatsResponse& o) const;
};

}  // namespace api
}  // namespace ifgen
