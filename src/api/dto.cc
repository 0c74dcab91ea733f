#include "api/dto.h"

#include <algorithm>

#include "engine/backend.h"
#include "util/string_util.h"

namespace ifgen {
namespace api {

// ---------------------------------------------------------------------------
// ObjectReader.

ObjectReader::ObjectReader(const JsonValue& value, std::string what)
    : value_(value), what_(std::move(what)) {
  if (!value_.is_object()) {
    status_ = Status::Invalid(what_ + ": expected a JSON object");
  } else {
    consumed_.assign(value_.members().size(), false);
  }
}

const JsonValue* ObjectReader::Get(const char* key) {
  if (!value_.is_object()) return nullptr;
  for (size_t i = 0; i < value_.members().size(); ++i) {
    if (value_.members()[i].first == key) {
      consumed_[i] = true;
      return &value_.members()[i].second;
    }
  }
  return nullptr;
}

void ObjectReader::Fail(Status s) {
  if (status_.ok()) status_ = std::move(s);
}

void ObjectReader::String(const char* key, std::string* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_string()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a string"));
    return;
  }
  *out = v->AsString();
}

void ObjectReader::Int(const char* key, int64_t* out, bool required, int64_t lo,
                       int64_t hi) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_int()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be an integer"));
    return;
  }
  if (v->AsInt() < lo || v->AsInt() > hi) {
    Fail(Status::OutOfRange(what_ + ": field '" + key + "'=" +
                            std::to_string(v->AsInt()) + " outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "]"));
    return;
  }
  *out = v->AsInt();
}

void ObjectReader::Double(const char* key, double* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_number()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a number"));
    return;
  }
  *out = v->AsDouble();
}

void ObjectReader::Bool(const char* key, bool* out, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_bool()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be a boolean"));
    return;
  }
  *out = v->AsBool();
}

void ObjectReader::StringArray(const char* key, std::vector<std::string>* out,
                               bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr) {
    if (required) Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
    return;
  }
  if (!v->is_array()) {
    Fail(Status::Invalid(what_ + ": field '" + key + "' must be an array"));
    return;
  }
  out->clear();
  for (const JsonValue& item : v->items()) {
    if (!item.is_string()) {
      Fail(Status::Invalid(what_ + ": field '" + key + "' must contain strings only"));
      return;
    }
    out->push_back(item.AsString());
  }
}

const JsonValue* ObjectReader::Child(const char* key, bool required) {
  const JsonValue* v = Get(key);
  if (v == nullptr && required) {
    Fail(Status::Invalid(what_ + ": missing required field '" + key + "'"));
  }
  return v;
}

Status ObjectReader::Finish() {
  if (!status_.ok()) return status_;
  std::vector<std::string> unknown;
  for (size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) unknown.push_back("'" + value_.members()[i].first + "'");
  }
  if (!unknown.empty()) {
    return Status::Invalid(what_ + ": unknown field(s) " + Join(unknown, ", "));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scalars.

JsonValue ValueToJson(const Value& v) {
  if (v.is_null()) return JsonValue::MakeNull();
  if (v.is_int()) return JsonValue::Int(v.AsInt());
  if (v.is_double()) return JsonValue::Double(v.AsDouble());
  return JsonValue::Str(v.AsString());
}

Result<Value> ValueFromJson(const JsonValue& j) {
  switch (j.kind()) {
    case JsonValue::Kind::kNull:
      return Value();
    case JsonValue::Kind::kInt:
      return Value(j.AsInt());
    case JsonValue::Kind::kDouble:
      return Value(j.AsDouble());
    case JsonValue::Kind::kString:
      return Value(j.AsString());
    default:
      return Status::Invalid("table cell must be null, number, or string");
  }
}

namespace {

/// Decodes an array of scalar rows; `what` names the enclosing DTO.
Status RowsFromJson(const JsonValue* arr, const std::string& what,
                    std::vector<std::vector<Value>>* out) {
  out->clear();
  if (arr == nullptr) return Status::OK();
  if (!arr->is_array()) return Status::Invalid(what + ": rows must be an array");
  for (const JsonValue& row : arr->items()) {
    if (!row.is_array()) {
      return Status::Invalid(what + ": each row must be an array");
    }
    std::vector<Value> cells;
    cells.reserve(row.size());
    for (const JsonValue& cell : row.items()) {
      IFGEN_ASSIGN_OR_RETURN(Value v, ValueFromJson(cell));
      cells.push_back(std::move(v));
    }
    out->push_back(std::move(cells));
  }
  return Status::OK();
}

JsonValue RowsToJson(const std::vector<std::vector<Value>>& rows) {
  JsonValue arr = JsonValue::Array();
  for (const std::vector<Value>& row : rows) {
    JsonValue jrow = JsonValue::Array();
    for (const Value& cell : row) jrow.Append(ValueToJson(cell));
    arr.Append(std::move(jrow));
  }
  return arr;
}

JsonValue StringsToJson(const std::vector<std::string>& items) {
  JsonValue arr = JsonValue::Array();
  for (const std::string& s : items) arr.Append(JsonValue::Str(s));
  return arr;
}

/// Decodes an array of nested DTOs via T::FromJson.
template <typename T>
Status ArrayFromJson(const JsonValue* arr, const std::string& what,
                     std::vector<T>* out) {
  out->clear();
  if (arr == nullptr) return Status::OK();
  if (!arr->is_array()) return Status::Invalid(what + ": must be an array");
  for (const JsonValue& item : arr->items()) {
    IFGEN_ASSIGN_OR_RETURN(T t, T::FromJson(item));
    out->push_back(std::move(t));
  }
  return Status::OK();
}

template <typename T>
JsonValue ArrayToJson(const std::vector<T>& items) {
  JsonValue arr = JsonValue::Array();
  for (const T& item : items) arr.Append(item.ToJson());
  return arr;
}

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

}  // namespace

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

JsonValue ErrorBody::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("code", JsonValue::Str(code));
  v.Set("message", JsonValue::Str(message));
  v.Set("retryable", JsonValue::Bool(retryable));
  return v;
}

Result<ErrorBody> ErrorBody::FromJson(const JsonValue& v) {
  ErrorBody e;
  ObjectReader r(v, "ErrorBody");
  r.String("code", &e.code, /*required=*/true);
  r.String("message", &e.message, /*required=*/true);
  // Optional for decode back-compat with pre-retryable payloads (absent =
  // not retryable); every v1 encoder emits it.
  r.Bool("retryable", &e.retryable);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return e;
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
  o.cache_peering = cache_peering;
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
  a.cache_peering = o.cache_peering;
  a.experience = o.experience;
  a.deadline_ms = o.search.time_control.deadline_ms;
  a.target_cost = o.search.time_control.target_cost;
  a.plateau_fraction = o.search.time_control.plateau_fraction;
  return a;
}

JsonValue ApiOptions::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("algorithm", JsonValue::Str(algorithm));
  v.Set("backend", JsonValue::Str(backend));
  v.Set("parallel_mode", JsonValue::Str(parallel_mode));
  v.Set("time_budget_ms", JsonValue::Int(time_budget_ms));
  v.Set("max_iterations", JsonValue::Int(max_iterations));
  v.Set("seed", JsonValue::Int(seed));
  v.Set("screen_width", JsonValue::Int(screen_width));
  v.Set("screen_height", JsonValue::Int(screen_height));
  v.Set("num_threads", JsonValue::Int(num_threads));
  v.Set("k_assignments", JsonValue::Int(k_assignments));
  v.Set("use_priors", JsonValue::Bool(use_priors));
  v.Set("progressive_widening", JsonValue::Bool(progressive_widening));
  v.Set("delta_cost_eval", JsonValue::Bool(delta_cost_eval));
  v.Set("cache_peering", JsonValue::Bool(cache_peering));
  v.Set("experience", JsonValue::Bool(experience));
  v.Set("deadline_ms", JsonValue::Int(deadline_ms));
  v.Set("target_cost", JsonValue::Double(target_cost));
  v.Set("plateau_fraction", JsonValue::Double(plateau_fraction));
  return v;
}

Result<ApiOptions> ApiOptions::FromJson(const JsonValue& v) {
  ApiOptions a;
  ObjectReader r(v, "options");
  r.String("algorithm", &a.algorithm);
  r.String("backend", &a.backend);
  r.String("parallel_mode", &a.parallel_mode);
  r.Int("time_budget_ms", &a.time_budget_ms);
  r.Int("max_iterations", &a.max_iterations);
  r.Int("seed", &a.seed);
  r.Int("screen_width", &a.screen_width);
  r.Int("screen_height", &a.screen_height);
  r.Int("num_threads", &a.num_threads);
  r.Int("k_assignments", &a.k_assignments);
  r.Bool("use_priors", &a.use_priors);
  r.Bool("progressive_widening", &a.progressive_widening);
  r.Bool("delta_cost_eval", &a.delta_cost_eval);
  r.Bool("cache_peering", &a.cache_peering);
  r.Bool("experience", &a.experience);
  r.Int("deadline_ms", &a.deadline_ms);
  r.Double("target_cost", &a.target_cost);
  r.Double("plateau_fraction", &a.plateau_fraction);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return a;
}

bool ApiOptions::operator==(const ApiOptions& o) const {
  return algorithm == o.algorithm && backend == o.backend &&
         parallel_mode == o.parallel_mode && time_budget_ms == o.time_budget_ms &&
         max_iterations == o.max_iterations && seed == o.seed &&
         screen_width == o.screen_width && screen_height == o.screen_height &&
         num_threads == o.num_threads && k_assignments == o.k_assignments &&
         use_priors == o.use_priors &&
         progressive_widening == o.progressive_widening &&
         delta_cost_eval == o.delta_cost_eval && cache_peering == o.cache_peering &&
         experience == o.experience &&
         deadline_ms == o.deadline_ms && target_cost == o.target_cost &&
         plateau_fraction == o.plateau_fraction;
}

// ---------------------------------------------------------------------------
// GenerateRequest / GenerateAccepted.

JsonValue GenerateRequest::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("workload", JsonValue::Str(workload));
  v.Set("sqls", StringsToJson(sqls));
  v.Set("options", options.ToJson());
  return v;
}

Result<GenerateRequest> GenerateRequest::FromJson(const JsonValue& v) {
  GenerateRequest req;
  ObjectReader r(v, "GenerateRequest");
  r.String("workload", &req.workload);
  r.StringArray("sqls", &req.sqls);
  const JsonValue* opts = r.Child("options");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (opts != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(req.options, ApiOptions::FromJson(*opts));
  }
  return req;
}

JsonValue GenerateAccepted::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("job_id", JsonValue::Str(job_id));
  v.Set("state", JsonValue::Str(state));
  return v;
}

Result<GenerateAccepted> GenerateAccepted::FromJson(const JsonValue& v) {
  GenerateAccepted a;
  ObjectReader r(v, "GenerateAccepted");
  r.String("job_id", &a.job_id, /*required=*/true);
  r.String("state", &a.state, /*required=*/true);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return a;
}

// ---------------------------------------------------------------------------
// Search stats.

JsonValue TracePoint::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("ms", JsonValue::Int(ms));
  v.Set("iteration", JsonValue::Int(iteration));
  v.Set("cost", JsonValue::Double(cost));
  return v;
}

Result<TracePoint> TracePoint::FromJson(const JsonValue& v) {
  TracePoint t;
  ObjectReader r(v, "TracePoint");
  r.Int("ms", &t.ms);
  r.Int("iteration", &t.iteration);
  r.Double("cost", &t.cost);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return t;
}

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

JsonValue SearchStatsDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("iterations", JsonValue::Int(iterations));
  v.Set("states_expanded", JsonValue::Int(states_expanded));
  v.Set("rollouts", JsonValue::Int(rollouts));
  v.Set("elapsed_ms", JsonValue::Int(elapsed_ms));
  v.Set("trees", JsonValue::Int(trees));
  v.Set("stop_reason", JsonValue::Str(stop_reason));
  v.Set("trace", ArrayToJson(trace));
  return v;
}

Result<SearchStatsDto> SearchStatsDto::FromJson(const JsonValue& v) {
  SearchStatsDto d;
  ObjectReader r(v, "SearchStats");
  r.Int("iterations", &d.iterations);
  r.Int("states_expanded", &d.states_expanded);
  r.Int("rollouts", &d.rollouts);
  r.Int("elapsed_ms", &d.elapsed_ms);
  r.Int("trees", &d.trees);
  r.String("stop_reason", &d.stop_reason);
  const JsonValue* trace = r.Child("trace");
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_RETURN_NOT_OK(ArrayFromJson(trace, "SearchStats.trace", &d.trace));
  return d;
}

bool SearchStatsDto::operator==(const SearchStatsDto& o) const {
  return iterations == o.iterations && states_expanded == o.states_expanded &&
         rollouts == o.rollouts && elapsed_ms == o.elapsed_ms && trees == o.trees &&
         stop_reason == o.stop_reason && trace == o.trace;
}

// ---------------------------------------------------------------------------
// GenerateResponse / JobStatusResponse.

JsonValue GenerateResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("job_id", JsonValue::Str(job_id));
  v.Set("workload", JsonValue::Str(workload));
  v.Set("algorithm", JsonValue::Str(algorithm));
  v.Set("backend", JsonValue::Str(backend));
  v.Set("coverage", JsonValue::Double(coverage));
  v.Set("cost", cost);
  v.Set("stats", stats.ToJson());
  v.Set("difftree", difftree);
  v.Set("widgets", widgets);
  return v;
}

Result<GenerateResponse> GenerateResponse::FromJson(const JsonValue& v) {
  GenerateResponse g;
  ObjectReader r(v, "GenerateResponse");
  r.String("job_id", &g.job_id);
  r.String("workload", &g.workload);
  r.String("algorithm", &g.algorithm);
  r.String("backend", &g.backend);
  r.Double("coverage", &g.coverage);
  const JsonValue* cost = r.Child("cost");
  const JsonValue* stats = r.Child("stats");
  const JsonValue* difftree = r.Child("difftree");
  const JsonValue* widgets = r.Child("widgets");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (cost != nullptr) g.cost = *cost;
  if (difftree != nullptr) g.difftree = *difftree;
  if (widgets != nullptr) g.widgets = *widgets;
  if (stats != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(g.stats, SearchStatsDto::FromJson(*stats));
  }
  return g;
}

bool GenerateResponse::operator==(const GenerateResponse& o) const {
  return job_id == o.job_id && workload == o.workload && algorithm == o.algorithm &&
         backend == o.backend && coverage == o.coverage && cost == o.cost &&
         stats == o.stats && difftree == o.difftree && widgets == o.widgets;
}

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

JsonValue JobStatusResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("job_id", JsonValue::Str(job_id));
  v.Set("state", JsonValue::Str(state));
  v.Set("cache_hit", JsonValue::Bool(cache_hit));
  v.Set("queued_ms", JsonValue::Int(queued_ms));
  v.Set("run_ms", JsonValue::Int(run_ms));
  result.AppendToJson(&v, "result");
  return v;
}

Result<JobStatusResponse> JobStatusResponse::FromJson(const JsonValue& v) {
  JobStatusResponse j;
  ObjectReader r(v, "JobStatusResponse");
  r.String("job_id", &j.job_id, /*required=*/true);
  r.String("state", &j.state, /*required=*/true);
  r.Bool("cache_hit", &j.cache_hit);
  r.Int("queued_ms", &j.queued_ms);
  r.Int("run_ms", &j.run_ms);
  const JsonValue* result = r.Child("result");
  const JsonValue* error = r.Child("error");
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_ASSIGN_OR_RETURN(j.result, JobResultDto::FromFields(result, error));
  return j;
}

bool JobStatusResponse::operator==(const JobStatusResponse& o) const {
  return job_id == o.job_id && state == o.state && cache_hit == o.cache_hit &&
         queued_ms == o.queued_ms && run_ms == o.run_ms && result == o.result;
}

JsonValue JobProgressResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("job_id", JsonValue::Str(job_id));
  v.Set("state", JsonValue::Str(state));
  v.Set("version", JsonValue::Int(version));
  v.Set("final", JsonValue::Bool(final_frame));
  result.AppendToJson(&v, "partial");
  return v;
}

Result<JobProgressResponse> JobProgressResponse::FromJson(const JsonValue& v) {
  JobProgressResponse p;
  ObjectReader r(v, "JobProgressResponse");
  r.String("job_id", &p.job_id, /*required=*/true);
  r.String("state", &p.state, /*required=*/true);
  r.Int("version", &p.version);
  r.Bool("final", &p.final_frame);
  const JsonValue* partial = r.Child("partial");
  const JsonValue* error = r.Child("error");
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_ASSIGN_OR_RETURN(p.result, JobResultDto::FromFields(partial, error));
  return p;
}

bool JobProgressResponse::operator==(const JobProgressResponse& o) const {
  return job_id == o.job_id && state == o.state && version == o.version &&
         final_frame == o.final_frame && result == o.result;
}

// ---------------------------------------------------------------------------
// Sessions.

JsonValue SessionOpenRequest::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("job_id", JsonValue::Str(job_id));
  v.Set("workload", JsonValue::Str(workload));
  v.Set("backend", JsonValue::Str(backend));
  return v;
}

Result<SessionOpenRequest> SessionOpenRequest::FromJson(const JsonValue& v) {
  SessionOpenRequest s;
  ObjectReader r(v, "SessionOpenRequest");
  r.String("job_id", &s.job_id, /*required=*/true);
  r.String("workload", &s.workload);
  r.String("backend", &s.backend);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return s;
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

JsonValue TableDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("columns", StringsToJson(columns));
  v.Set("rows", RowsToJson(rows));
  return v;
}

Result<TableDto> TableDto::FromJson(const JsonValue& v) {
  TableDto t;
  ObjectReader r(v, "Table");
  r.StringArray("columns", &t.columns);
  const JsonValue* rows = r.Child("rows");
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_RETURN_NOT_OK(RowsFromJson(rows, "Table", &t.rows));
  for (const std::vector<Value>& row : t.rows) {
    if (row.size() != t.columns.size()) {
      return Status::Invalid("Table: row arity " + std::to_string(row.size()) +
                             " != column count " + std::to_string(t.columns.size()));
    }
  }
  return t;
}

JsonValue SessionOpenResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("session_id", JsonValue::Str(session_id));
  v.Set("sql", JsonValue::Str(sql));
  v.Set("version", JsonValue::Int(version));
  v.Set("table", table.ToJson());
  v.Set("widgets", widgets);
  return v;
}

Result<SessionOpenResponse> SessionOpenResponse::FromJson(const JsonValue& v) {
  SessionOpenResponse s;
  ObjectReader r(v, "SessionOpenResponse");
  r.String("session_id", &s.session_id, /*required=*/true);
  r.String("sql", &s.sql);
  r.Int("version", &s.version);
  const JsonValue* table = r.Child("table");
  const JsonValue* widgets = r.Child("widgets");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (table != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(s.table, TableDto::FromJson(*table));
  }
  if (widgets != nullptr) s.widgets = *widgets;
  return s;
}

bool SessionOpenResponse::operator==(const SessionOpenResponse& o) const {
  return session_id == o.session_id && sql == o.sql && version == o.version &&
         table == o.table && widgets == o.widgets;
}

// ---------------------------------------------------------------------------
// Widget events.

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

// ---------------------------------------------------------------------------
// Step reports / change feed.

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

JsonValue StepReportDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("transition", JsonValue::Str(transition));
  v.Set("incremental", JsonValue::Bool(incremental));
  v.Set("from_cache", JsonValue::Bool(from_cache));
  v.Set("widgets_changed", JsonValue::Int(widgets_changed));
  v.Set("interaction_cost", JsonValue::Double(interaction_cost));
  v.Set("navigation_cost", JsonValue::Double(navigation_cost));
  v.Set("rows", JsonValue::Int(rows));
  v.Set("rows_added", JsonValue::Int(rows_added));
  v.Set("rows_removed", JsonValue::Int(rows_removed));
  v.Set("rows_updated", JsonValue::Int(rows_updated));
  return v;
}

Result<StepReportDto> StepReportDto::FromJson(const JsonValue& v) {
  StepReportDto d;
  ObjectReader r(v, "StepReport");
  r.String("transition", &d.transition);
  r.Bool("incremental", &d.incremental);
  r.Bool("from_cache", &d.from_cache);
  r.Int("widgets_changed", &d.widgets_changed);
  r.Double("interaction_cost", &d.interaction_cost);
  r.Double("navigation_cost", &d.navigation_cost);
  r.Int("rows", &d.rows);
  r.Int("rows_added", &d.rows_added);
  r.Int("rows_removed", &d.rows_removed);
  r.Int("rows_updated", &d.rows_updated);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return d;
}

bool StepReportDto::operator==(const StepReportDto& o) const {
  return transition == o.transition && incremental == o.incremental &&
         from_cache == o.from_cache && widgets_changed == o.widgets_changed &&
         interaction_cost == o.interaction_cost &&
         navigation_cost == o.navigation_cost && rows == o.rows &&
         rows_added == o.rows_added && rows_removed == o.rows_removed &&
         rows_updated == o.rows_updated;
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

JsonValue RowChangeDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("kind", JsonValue::Str(kind));
  JsonValue jrow = JsonValue::Array();
  for (const Value& cell : row) jrow.Append(ValueToJson(cell));
  v.Set("row", std::move(jrow));
  if (kind == "update") {
    JsonValue jold = JsonValue::Array();
    for (const Value& cell : old_row) jold.Append(ValueToJson(cell));
    v.Set("old_row", std::move(jold));
  }
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
  std::vector<std::vector<Value>> rows;
  if (row != nullptr && row->is_array()) {
    JsonValue wrap = JsonValue::Array();
    wrap.Append(*row);
    IFGEN_RETURN_NOT_OK(RowsFromJson(&wrap, "RowChange", &rows));
    d.row = std::move(rows[0]);
  } else {
    return Status::Invalid("RowChange: 'row' must be an array");
  }
  if (old_row != nullptr) {
    if (!old_row->is_array()) {
      return Status::Invalid("RowChange: 'old_row' must be an array");
    }
    JsonValue wrap = JsonValue::Array();
    wrap.Append(*old_row);
    IFGEN_RETURN_NOT_OK(RowsFromJson(&wrap, "RowChange", &rows));
    d.old_row = std::move(rows[0]);
  }
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

JsonValue ChangeBatchDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("from_version", JsonValue::Int(from_version));
  v.Set("to_version", JsonValue::Int(to_version));
  v.Set("last_step", last_step.ToJson());
  v.Set("changes", ArrayToJson(changes));
  return v;
}

Result<ChangeBatchDto> ChangeBatchDto::FromJson(const JsonValue& v) {
  ChangeBatchDto d;
  ObjectReader r(v, "ChangeBatch");
  r.Int("from_version", &d.from_version);
  r.Int("to_version", &d.to_version);
  const JsonValue* last_step = r.Child("last_step");
  const JsonValue* changes = r.Child("changes");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (last_step != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(d.last_step, StepReportDto::FromJson(*last_step));
  }
  IFGEN_RETURN_NOT_OK(ArrayFromJson(changes, "ChangeBatch.changes", &d.changes));
  return d;
}

bool ChangeBatchDto::operator==(const ChangeBatchDto& o) const {
  return from_version == o.from_version && to_version == o.to_version &&
         last_step == o.last_step && changes == o.changes;
}

JsonValue StepResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("session_id", JsonValue::Str(session_id));
  v.Set("sql", JsonValue::Str(sql));
  v.Set("version", JsonValue::Int(version));
  v.Set("report", report.ToJson());
  v.Set("batch", batch.ToJson());
  return v;
}

Result<StepResponse> StepResponse::FromJson(const JsonValue& v) {
  StepResponse s;
  ObjectReader r(v, "StepResponse");
  r.String("session_id", &s.session_id, /*required=*/true);
  r.String("sql", &s.sql);
  r.Int("version", &s.version);
  const JsonValue* report = r.Child("report");
  const JsonValue* batch = r.Child("batch");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (report != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(s.report, StepReportDto::FromJson(*report));
  }
  if (batch != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(s.batch, ChangeBatchDto::FromJson(*batch));
  }
  return s;
}

bool StepResponse::operator==(const StepResponse& o) const {
  return session_id == o.session_id && sql == o.sql && version == o.version &&
         report == o.report && batch == o.batch;
}

// ---------------------------------------------------------------------------
// Introspection.

JsonValue TableInfo::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("name", JsonValue::Str(name));
  v.Set("rows", JsonValue::Int(rows));
  v.Set("columns", JsonValue::Int(columns));
  return v;
}

Result<TableInfo> TableInfo::FromJson(const JsonValue& v) {
  TableInfo t;
  ObjectReader r(v, "TableInfo");
  r.String("name", &t.name, /*required=*/true);
  r.Int("rows", &t.rows);
  r.Int("columns", &t.columns);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return t;
}

JsonValue WorkloadInfo::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("name", JsonValue::Str(name));
  v.Set("queries", JsonValue::Int(queries));
  v.Set("tables", ArrayToJson(tables));
  return v;
}

Result<WorkloadInfo> WorkloadInfo::FromJson(const JsonValue& v) {
  WorkloadInfo w;
  ObjectReader r(v, "WorkloadInfo");
  r.String("name", &w.name, /*required=*/true);
  r.Int("queries", &w.queries);
  const JsonValue* tables = r.Child("tables");
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_RETURN_NOT_OK(ArrayFromJson(tables, "WorkloadInfo.tables", &w.tables));
  return w;
}

bool WorkloadInfo::operator==(const WorkloadInfo& o) const {
  return name == o.name && queries == o.queries && tables == o.tables;
}

JsonValue CatalogResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("workloads", ArrayToJson(workloads));
  v.Set("backends", StringsToJson(backends));
  return v;
}

Result<CatalogResponse> CatalogResponse::FromJson(const JsonValue& v) {
  CatalogResponse c;
  ObjectReader r(v, "CatalogResponse");
  const JsonValue* workloads = r.Child("workloads");
  r.StringArray("backends", &c.backends);
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_RETURN_NOT_OK(
      ArrayFromJson(workloads, "CatalogResponse.workloads", &c.workloads));
  return c;
}

JsonValue BackendStatsDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("workload", JsonValue::Str(workload));
  v.Set("backend", JsonValue::Str(backend));
  v.Set("prepares", JsonValue::Int(prepares));
  v.Set("plan_cache_hits", JsonValue::Int(plan_cache_hits));
  v.Set("executions", JsonValue::Int(executions));
  return v;
}

Result<BackendStatsDto> BackendStatsDto::FromJson(const JsonValue& v) {
  BackendStatsDto b;
  ObjectReader r(v, "BackendStats");
  r.String("workload", &b.workload);
  r.String("backend", &b.backend, /*required=*/true);
  r.Int("prepares", &b.prepares);
  r.Int("plan_cache_hits", &b.plan_cache_hits);
  r.Int("executions", &b.executions);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return b;
}

bool BackendStatsDto::operator==(const BackendStatsDto& o) const {
  return workload == o.workload && backend == o.backend && prepares == o.prepares &&
         plan_cache_hits == o.plan_cache_hits && executions == o.executions;
}

JsonValue WorkerStatsDto::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("worker", JsonValue::Int(worker));
  v.Set("address", JsonValue::Str(address));
  v.Set("healthy", JsonValue::Bool(healthy));
  v.Set("draining", JsonValue::Bool(draining));
  v.Set("jobs_submitted", JsonValue::Int(jobs_submitted));
  v.Set("jobs_executed", JsonValue::Int(jobs_executed));
  v.Set("jobs_pending", JsonValue::Int(jobs_pending));
  v.Set("sessions_active", JsonValue::Int(sessions_active));
  v.Set("rpcs", JsonValue::Int(rpcs));
  v.Set("rpc_failures", JsonValue::Int(rpc_failures));
  v.Set("reconnects", JsonValue::Int(reconnects));
  v.Set("cache_probes", JsonValue::Int(cache_probes));
  v.Set("cache_probe_hits", JsonValue::Int(cache_probe_hits));
  v.Set("tt_peer_ingested", JsonValue::Int(tt_peer_ingested));
  v.Set("tt_peer_hits", JsonValue::Int(tt_peer_hits));
  v.Set("result_peer_hits", JsonValue::Int(result_peer_hits));
  v.Set("tt_published", JsonValue::Int(tt_published));
  return v;
}

Result<WorkerStatsDto> WorkerStatsDto::FromJson(const JsonValue& v) {
  WorkerStatsDto w;
  ObjectReader r(v, "WorkerStatsDto");
  r.Int("worker", &w.worker, /*required=*/true, 0);
  r.String("address", &w.address, /*required=*/true);
  r.Bool("healthy", &w.healthy);
  r.Bool("draining", &w.draining);
  r.Int("jobs_submitted", &w.jobs_submitted);
  r.Int("jobs_executed", &w.jobs_executed);
  r.Int("jobs_pending", &w.jobs_pending);
  r.Int("sessions_active", &w.sessions_active);
  r.Int("rpcs", &w.rpcs);
  r.Int("rpc_failures", &w.rpc_failures);
  r.Int("reconnects", &w.reconnects);
  r.Int("cache_probes", &w.cache_probes);
  r.Int("cache_probe_hits", &w.cache_probe_hits);
  r.Int("tt_peer_ingested", &w.tt_peer_ingested);
  r.Int("tt_peer_hits", &w.tt_peer_hits);
  r.Int("result_peer_hits", &w.result_peer_hits);
  r.Int("tt_published", &w.tt_published);
  IFGEN_RETURN_NOT_OK(r.Finish());
  return w;
}

bool WorkerStatsDto::operator==(const WorkerStatsDto& o) const {
  return worker == o.worker && address == o.address && healthy == o.healthy &&
         draining == o.draining && jobs_submitted == o.jobs_submitted &&
         jobs_executed == o.jobs_executed && jobs_pending == o.jobs_pending &&
         sessions_active == o.sessions_active && rpcs == o.rpcs &&
         rpc_failures == o.rpc_failures && reconnects == o.reconnects &&
         cache_probes == o.cache_probes &&
         cache_probe_hits == o.cache_probe_hits &&
         tt_peer_ingested == o.tt_peer_ingested &&
         tt_peer_hits == o.tt_peer_hits &&
         result_peer_hits == o.result_peer_hits &&
         tt_published == o.tt_published;
}

JsonValue ClusterResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("mode", JsonValue::Str(mode));
  v.Set("workers", ArrayToJson(workers));
  return v;
}

Result<ClusterResponse> ClusterResponse::FromJson(const JsonValue& v) {
  ClusterResponse c;
  ObjectReader r(v, "ClusterResponse");
  r.String("mode", &c.mode, /*required=*/true);
  const JsonValue* workers = r.Child("workers");
  IFGEN_RETURN_NOT_OK(r.Finish());
  IFGEN_RETURN_NOT_OK(
      ArrayFromJson(workers, "ClusterResponse.workers", &c.workers));
  return c;
}

JsonValue StatsResponse::ToJson() const {
  JsonValue v = JsonValue::Object();
  JsonValue jobs = JsonValue::Object();
  jobs.Set("submitted", JsonValue::Int(jobs_submitted));
  jobs.Set("executed", JsonValue::Int(jobs_executed));
  jobs.Set("pending", JsonValue::Int(jobs_pending));
  jobs.Set("cache_hits", JsonValue::Int(job_cache_hits));
  v.Set("jobs", std::move(jobs));
  JsonValue sessions = JsonValue::Object();
  sessions.Set("opened", JsonValue::Int(sessions_opened));
  sessions.Set("active", JsonValue::Int(sessions_active));
  sessions.Set("expired", JsonValue::Int(sessions_expired));
  v.Set("sessions", std::move(sessions));
  JsonValue runtime = JsonValue::Object();
  runtime.Set("steps", JsonValue::Int(steps));
  runtime.Set("noops", JsonValue::Int(noops));
  runtime.Set("result_cache_hits", JsonValue::Int(result_cache_hits));
  runtime.Set("delta_execs", JsonValue::Int(delta_execs));
  runtime.Set("retruncates", JsonValue::Int(retruncates));
  runtime.Set("full_execs", JsonValue::Int(full_execs));
  runtime.Set("fallbacks", JsonValue::Int(fallbacks));
  v.Set("runtime", std::move(runtime));
  v.Set("backends", ArrayToJson(backends));
  JsonValue learn = JsonValue::Object();
  learn.Set("store_entries", JsonValue::Int(learn_store_entries));
  learn.Set("hits", JsonValue::Int(learn_hits));
  learn.Set("misses", JsonValue::Int(learn_misses));
  learn.Set("seeded", JsonValue::Int(learn_seeded));
  learn.Set("recorded", JsonValue::Int(learn_recorded));
  learn.Set("saves", JsonValue::Int(learn_saves));
  learn.Set("loads", JsonValue::Int(learn_loads));
  v.Set("learn", std::move(learn));
  JsonValue cluster = JsonValue::Object();
  cluster.Set("workers", ArrayToJson(cluster_workers));
  v.Set("cluster", std::move(cluster));
  return v;
}

Result<StatsResponse> StatsResponse::FromJson(const JsonValue& v) {
  StatsResponse s;
  ObjectReader r(v, "StatsResponse");
  const JsonValue* jobs = r.Child("jobs");
  const JsonValue* sessions = r.Child("sessions");
  const JsonValue* runtime = r.Child("runtime");
  const JsonValue* backends = r.Child("backends");
  const JsonValue* learn = r.Child("learn");
  const JsonValue* cluster = r.Child("cluster");
  IFGEN_RETURN_NOT_OK(r.Finish());
  if (learn != nullptr) {
    ObjectReader lr(*learn, "StatsResponse.learn");
    lr.Int("store_entries", &s.learn_store_entries);
    lr.Int("hits", &s.learn_hits);
    lr.Int("misses", &s.learn_misses);
    lr.Int("seeded", &s.learn_seeded);
    lr.Int("recorded", &s.learn_recorded);
    lr.Int("saves", &s.learn_saves);
    lr.Int("loads", &s.learn_loads);
    IFGEN_RETURN_NOT_OK(lr.Finish());
  }
  if (cluster != nullptr) {
    ObjectReader cr(*cluster, "StatsResponse.cluster");
    const JsonValue* workers = cr.Child("workers");
    IFGEN_RETURN_NOT_OK(cr.Finish());
    IFGEN_RETURN_NOT_OK(ArrayFromJson(workers, "StatsResponse.cluster.workers",
                                      &s.cluster_workers));
  }
  if (jobs != nullptr) {
    ObjectReader jr(*jobs, "StatsResponse.jobs");
    jr.Int("submitted", &s.jobs_submitted);
    jr.Int("executed", &s.jobs_executed);
    jr.Int("pending", &s.jobs_pending);
    jr.Int("cache_hits", &s.job_cache_hits);
    IFGEN_RETURN_NOT_OK(jr.Finish());
  }
  if (sessions != nullptr) {
    ObjectReader sr(*sessions, "StatsResponse.sessions");
    sr.Int("opened", &s.sessions_opened);
    sr.Int("active", &s.sessions_active);
    sr.Int("expired", &s.sessions_expired);
    IFGEN_RETURN_NOT_OK(sr.Finish());
  }
  if (runtime != nullptr) {
    ObjectReader rr(*runtime, "StatsResponse.runtime");
    rr.Int("steps", &s.steps);
    rr.Int("noops", &s.noops);
    rr.Int("result_cache_hits", &s.result_cache_hits);
    rr.Int("delta_execs", &s.delta_execs);
    rr.Int("retruncates", &s.retruncates);
    rr.Int("full_execs", &s.full_execs);
    rr.Int("fallbacks", &s.fallbacks);
    IFGEN_RETURN_NOT_OK(rr.Finish());
  }
  IFGEN_RETURN_NOT_OK(ArrayFromJson(backends, "StatsResponse.backends", &s.backends));
  return s;
}

bool StatsResponse::operator==(const StatsResponse& o) const {
  return jobs_submitted == o.jobs_submitted && jobs_executed == o.jobs_executed &&
         jobs_pending == o.jobs_pending && job_cache_hits == o.job_cache_hits &&
         sessions_opened == o.sessions_opened &&
         sessions_active == o.sessions_active &&
         sessions_expired == o.sessions_expired && steps == o.steps &&
         noops == o.noops && result_cache_hits == o.result_cache_hits &&
         delta_execs == o.delta_execs && retruncates == o.retruncates &&
         full_execs == o.full_execs && fallbacks == o.fallbacks &&
         backends == o.backends &&
         learn_store_entries == o.learn_store_entries &&
         learn_hits == o.learn_hits && learn_misses == o.learn_misses &&
         learn_seeded == o.learn_seeded && learn_recorded == o.learn_recorded &&
         learn_saves == o.learn_saves && learn_loads == o.learn_loads &&
         cluster_workers == o.cluster_workers;
}

}  // namespace api
}  // namespace ifgen
