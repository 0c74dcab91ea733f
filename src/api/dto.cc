#include "api/dto.h"

#include "api/codec.h"
#include "engine/backend.h"

namespace ifgen {
namespace api {

namespace {

Result<Algorithm> ParseAlgorithm(const std::string& name) {
  for (Algorithm a : {Algorithm::kMcts, Algorithm::kRandom, Algorithm::kGreedy,
                      Algorithm::kBeam, Algorithm::kExhaustive, Algorithm::kBottomUp}) {
    if (name == AlgorithmName(a)) return a;
  }
  return Status::Invalid("unknown algorithm '" + name +
                         "' (expected mcts|random|greedy|beam|exhaustive|bottom-up)");
}

Result<BackendKind> ParseBackendKind(const std::string& name) {
  for (BackendKind k :
       {BackendKind::kReference, BackendKind::kColumnar, BackendKind::kSqlite}) {
    if (name == BackendKindName(k)) return k;
  }
  return Status::Invalid("unknown backend '" + name +
                         "' (expected reference|columnar|sqlite)");
}

/// Root parallelism is the only mode; the field stays on the wire so
/// clients that send it keep working.
Status CheckParallelMode(const std::string& name) {
  if (name == "root") return Status::OK();
  if (name == "leaf") {
    return Status::Invalid("parallel_mode 'leaf' was removed; only 'root' is supported");
  }
  return Status::Invalid("unknown parallel_mode '" + name + "' (expected root)");
}

/// TableDto's whole-value check: one cell per column in every row.
Status CheckTableArity(const TableDto& t) {
  for (const std::vector<Value>& row : t.rows) {
    if (row.size() != t.columns.size()) {
      return Status::Invalid("Table: row arity " + std::to_string(row.size()) +
                             " != column count " + std::to_string(t.columns.size()));
    }
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Table DTOs: codecs derived from each DTO's Fields().

IFGEN_WIRE_CODEC(ErrorBody, "ErrorBody")
IFGEN_WIRE_CODEC(ApiOptions, "options")
IFGEN_WIRE_CODEC(GenerateRequest, "GenerateRequest")
IFGEN_WIRE_CODEC(GenerateAccepted, "GenerateAccepted")
IFGEN_WIRE_CODEC(TracePoint, "TracePoint")
IFGEN_WIRE_CODEC(SearchStatsDto, "SearchStats")
IFGEN_WIRE_CODEC(GenerateResponse, "GenerateResponse")
IFGEN_WIRE_CODEC(JobStatusResponse, "JobStatusResponse")
IFGEN_WIRE_CODEC(JobProgressResponse, "JobProgressResponse")
IFGEN_WIRE_CODEC(SessionOpenRequest, "SessionOpenRequest")
IFGEN_WIRE_CODEC_CHECKED(TableDto, "Table", CheckTableArity)
IFGEN_WIRE_CODEC(SessionOpenResponse, "SessionOpenResponse")
IFGEN_WIRE_CODEC(StepReportDto, "StepReport")
IFGEN_WIRE_CODEC(ChangeBatchDto, "ChangeBatch")
IFGEN_WIRE_CODEC(StepResponse, "StepResponse")
IFGEN_WIRE_CODEC(TableInfo, "TableInfo")
IFGEN_WIRE_CODEC(WorkloadInfo, "WorkloadInfo")
IFGEN_WIRE_CODEC(CatalogResponse, "CatalogResponse")
IFGEN_WIRE_CODEC(BackendStatsDto, "BackendStats")
IFGEN_WIRE_CODEC(WorkerStatsDto, "WorkerStatsDto")
IFGEN_WIRE_CODEC(ClusterResponse, "ClusterResponse")
IFGEN_WIRE_CODEC(StatsResponse, "StatsResponse")

// ---------------------------------------------------------------------------
// ErrorBody.

bool ErrorBody::RetryableCode(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

ErrorBody ErrorBody::FromStatus(const Status& s) {
  ErrorBody e;
  e.code = StatusCodeName(s.ok() ? StatusCode::kInternal : s.code());
  e.message = s.ok() ? "error body built from OK status" : s.message();
  e.retryable = !s.ok() && RetryableCode(s.code());
  return e;
}

Status ErrorBody::ToStatus() const {
  for (int c = 1; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    StatusCode sc = static_cast<StatusCode>(c);
    if (code == StatusCodeName(sc)) return Status(sc, message);
  }
  return Status::Internal("unrecognized error code '" + code + "': " + message);
}

// ---------------------------------------------------------------------------
// ApiOptions.

Result<GeneratorOptions> ApiOptions::ToGeneratorOptions() const {
  GeneratorOptions o;
  IFGEN_ASSIGN_OR_RETURN(o.algorithm, ParseAlgorithm(algorithm));
  IFGEN_ASSIGN_OR_RETURN(o.backend, ParseBackendKind(backend));
  IFGEN_RETURN_NOT_OK(CheckParallelMode(parallel_mode));
  if (screen_width < 10 || screen_width > 10000 || screen_height < 5 ||
      screen_height > 10000) {
    return Status::OutOfRange("screen must be within [10,10000]x[5,10000], got " +
                              std::to_string(screen_width) + "x" +
                              std::to_string(screen_height));
  }
  if (time_budget_ms < 0 || time_budget_ms > 10 * 60 * 1000) {
    return Status::OutOfRange("time_budget_ms must be in [0, 600000], got " +
                              std::to_string(time_budget_ms));
  }
  if (max_iterations < 0) {
    return Status::OutOfRange("max_iterations must be >= 0");
  }
  if (deadline_ms < 0 || deadline_ms > 10 * 60 * 1000) {
    return Status::OutOfRange("deadline_ms must be in [0, 600000], got " +
                              std::to_string(deadline_ms));
  }
  if (target_cost < 0.0) {
    return Status::OutOfRange("target_cost must be >= 0");
  }
  if (plateau_fraction < 0.0 || plateau_fraction > 1.0) {
    return Status::OutOfRange("plateau_fraction must be in [0, 1], got " +
                              std::to_string(plateau_fraction));
  }
  if (time_budget_ms == 0 && max_iterations == 0 && deadline_ms == 0) {
    return Status::OutOfRange(
        "unbounded search: time_budget_ms == 0 requires max_iterations > 0 "
        "or deadline_ms > 0");
  }
  if (seed < 0) return Status::OutOfRange("seed must be >= 0");
  if (num_threads < 1 || num_threads > 64) {
    return Status::OutOfRange("num_threads must be in [1, 64], got " +
                              std::to_string(num_threads));
  }
  if (k_assignments < 1 || k_assignments > 64) {
    return Status::OutOfRange("k_assignments must be in [1, 64], got " +
                              std::to_string(k_assignments));
  }
  o.screen.width = static_cast<int>(screen_width);
  o.screen.height = static_cast<int>(screen_height);
  o.search.time_budget_ms = time_budget_ms;
  o.search.max_iterations = static_cast<size_t>(max_iterations);
  o.search.seed = static_cast<uint64_t>(seed);
  o.search.priors.use_priors = use_priors;
  o.search.priors.progressive_widening = progressive_widening;
  o.search.time_control.deadline_ms = deadline_ms;
  o.search.time_control.target_cost = target_cost;
  o.search.time_control.plateau_fraction = plateau_fraction;
  o.parallel.num_threads = static_cast<size_t>(num_threads);
  o.delta_cost_eval = delta_cost_eval;
  o.k_assignments = static_cast<size_t>(k_assignments);
  o.experience = experience;
  return o;
}

ApiOptions ApiOptions::FromGeneratorOptions(const GeneratorOptions& o) {
  ApiOptions a;
  a.algorithm = std::string(AlgorithmName(o.algorithm));
  a.backend = std::string(BackendKindName(o.backend));
  a.time_budget_ms = o.search.time_budget_ms;
  a.max_iterations = static_cast<int64_t>(o.search.max_iterations);
  a.seed = static_cast<int64_t>(o.search.seed);
  a.screen_width = o.screen.width;
  a.screen_height = o.screen.height;
  a.num_threads = static_cast<int64_t>(o.parallel.num_threads);
  a.k_assignments = static_cast<int64_t>(o.k_assignments);
  a.use_priors = o.search.priors.use_priors;
  a.progressive_widening = o.search.priors.progressive_widening;
  a.delta_cost_eval = o.delta_cost_eval;
  a.experience = o.experience;
  a.deadline_ms = o.search.time_control.deadline_ms;
  a.target_cost = o.search.time_control.target_cost;
  a.plateau_fraction = o.search.time_control.plateau_fraction;
  return a;
}

// ---------------------------------------------------------------------------
// Conversions from internal types.

SearchStatsDto SearchStatsDto::FromStats(const SearchStats& s) {
  SearchStatsDto d;
  d.iterations = static_cast<int64_t>(s.iterations);
  d.states_expanded = static_cast<int64_t>(s.states_expanded);
  d.rollouts = static_cast<int64_t>(s.rollouts);
  d.elapsed_ms = s.elapsed_ms;
  d.trees = static_cast<int64_t>(s.trees);
  d.stop_reason = std::string(StopReasonName(s.stop_reason));
  d.trace.reserve(s.trace.size());
  for (const BestTrace& t : s.trace) {
    d.trace.push_back({t.ms, static_cast<int64_t>(t.iteration), t.cost});
  }
  return d;
}

TableDto TableDto::FromTable(const Table& t) {
  TableDto d;
  d.columns.reserve(t.num_columns());
  for (const ColumnDef& c : t.schema().columns) d.columns.push_back(c.name);
  d.rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> row;
    row.reserve(t.num_columns());
    for (size_t c = 0; c < t.num_columns(); ++c) row.push_back(t.At(r, c));
    d.rows.push_back(std::move(row));
  }
  return d;
}

StepReportDto StepReportDto::FromReport(const InteractiveRuntime::StepReport& r) {
  StepReportDto d;
  d.transition = std::string(TransitionClassName(r.transition));
  d.incremental = r.incremental;
  d.from_cache = r.from_cache;
  d.widgets_changed = static_cast<int64_t>(r.widgets_changed);
  d.interaction_cost = r.interaction_cost;
  d.navigation_cost = r.navigation_cost;
  d.rows = static_cast<int64_t>(r.rows);
  d.rows_added = static_cast<int64_t>(r.rows_added);
  d.rows_removed = static_cast<int64_t>(r.rows_removed);
  d.rows_updated = static_cast<int64_t>(r.rows_updated);
  return d;
}

RowChangeDto RowChangeDto::FromChange(const InteractiveRuntime::RowChange& c) {
  RowChangeDto d;
  switch (c.kind) {
    case InteractiveRuntime::RowChange::Kind::kAdd:
      d.kind = "add";
      break;
    case InteractiveRuntime::RowChange::Kind::kRemove:
      d.kind = "remove";
      break;
    case InteractiveRuntime::RowChange::Kind::kUpdate:
      d.kind = "update";
      break;
  }
  d.row = c.row;
  d.old_row = c.old_row;
  return d;
}

ChangeBatchDto ChangeBatchDto::FromBatch(const InteractiveRuntime::ChangeBatch& b) {
  ChangeBatchDto d;
  d.from_version = static_cast<int64_t>(b.from_version);
  d.to_version = static_cast<int64_t>(b.to_version);
  d.last_step = StepReportDto::FromReport(b.last_step);
  d.changes.reserve(b.changes.size());
  for (const InteractiveRuntime::RowChange& c : b.changes) {
    d.changes.push_back(RowChangeDto::FromChange(c));
  }
  return d;
}

// ---------------------------------------------------------------------------
// Irregular shapes: hand-written codecs over the same primitives.

void JobResultDto::AppendToJson(JsonValue* obj, const char* value_field) const {
  if (value.has_value()) obj->Set(value_field, value->ToJson());
  if (error.has_value()) obj->Set("error", error->ToJson());
}

Result<JobResultDto> JobResultDto::FromFields(const JsonValue* value_json,
                                              const JsonValue* error_json) {
  JobResultDto d;
  if (value_json != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(GenerateResponse g,
                           GenerateResponse::FromJson(*value_json));
    d.value = std::move(g);
  }
  if (error_json != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(ErrorBody e, ErrorBody::FromJson(*error_json));
    d.error = std::move(e);
  }
  return d;
}

JsonValue WidgetEventRequest::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("kind", JsonValue::Str(kind));
  if (kind == "set_any") {
    v.Set("choice_id", JsonValue::Int(choice_id));
    v.Set("option_index", JsonValue::Int(option_index));
  } else if (kind == "set_opt") {
    v.Set("choice_id", JsonValue::Int(choice_id));
    v.Set("present", JsonValue::Bool(present));
  } else if (kind == "set_multi") {
    v.Set("choice_id", JsonValue::Int(choice_id));
    v.Set("count", JsonValue::Int(count));
  } else if (kind == "load_query") {
    v.Set("sql", JsonValue::Str(sql));
  }
  return v;
}

Result<WidgetEventRequest> WidgetEventRequest::FromJson(const JsonValue& v) {
  WidgetEventRequest e;
  ObjectReader r(v, "WidgetEventRequest");
  r.String("kind", &e.kind, /*required=*/true);
  // Consume exactly the fields the kind allows; anything else trips the
  // unknown-field guard in Finish() — a mis-targeted field is a client bug,
  // not something to ignore.
  if (e.kind == "set_any") {
    r.Int("choice_id", &e.choice_id, /*required=*/true);
    r.Int("option_index", &e.option_index, /*required=*/true);
  } else if (e.kind == "set_opt") {
    r.Int("choice_id", &e.choice_id, /*required=*/true);
    r.Bool("present", &e.present, /*required=*/true);
  } else if (e.kind == "set_multi") {
    r.Int("choice_id", &e.choice_id, /*required=*/true);
    r.Int("count", &e.count, /*required=*/true, 0);
  } else if (e.kind == "load_query") {
    r.String("sql", &e.sql, /*required=*/true);
  } else {
    return Status::Invalid(
        "WidgetEventRequest: unknown kind '" + e.kind +
        "' (expected set_any|set_opt|set_multi|load_query)");
  }
  IFGEN_RETURN_NOT_OK(r.Finish());
  return e;
}

bool WidgetEventRequest::operator==(const WidgetEventRequest& o) const {
  return kind == o.kind && choice_id == o.choice_id &&
         option_index == o.option_index && count == o.count &&
         present == o.present && sql == o.sql;
}

JsonValue RowChangeDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("kind", JsonValue::Str(kind));
  v.Set("row", CellsToJson(row));
  if (kind == "update") v.Set("old_row", CellsToJson(old_row));
  return v;
}

Result<RowChangeDto> RowChangeDto::FromJson(const JsonValue& v) {
  RowChangeDto d;
  ObjectReader r(v, "RowChange");
  r.String("kind", &d.kind, /*required=*/true);
  const JsonValue* row = r.Child("row", /*required=*/true);
  const JsonValue* old_row = d.kind == "update" ? r.Child("old_row") : nullptr;
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (d.kind != "add" && d.kind != "remove" && d.kind != "update") {
    return Status::Invalid("RowChange: unknown kind '" + d.kind + "'");
  }
  if (!row->is_array()) return Status::Invalid("RowChange: 'row' must be an array");
  IFGEN_RETURN_NOT_OK(CellsFromJson(*row, &d.row));
  if (old_row != nullptr) {
    if (!old_row->is_array()) {
      return Status::Invalid("RowChange: 'old_row' must be an array");
    }
    IFGEN_RETURN_NOT_OK(CellsFromJson(*old_row, &d.old_row));
  }
  return d;
}

}  // namespace api
}  // namespace ifgen
