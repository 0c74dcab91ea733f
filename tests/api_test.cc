// v1 API layer tests: the JSON value model, the DTO codec (exact
// round-trips + structured error paths), and the transport-agnostic
// ApiService facade driven end-to-end — with the session arm checked
// differentially against an InteractiveRuntime driven in-process
// (bit-identical tables across the DTO boundary).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "api/api_service.h"
#include "api/dto.h"
#include "core/interface_generator.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

using api::ApiOptions;
using api::ApiService;
using api::ChangeBatchDto;
using api::ErrorBody;
using api::GenerateRequest;
using api::RowChangeDto;
using api::SessionOpenRequest;
using api::StepReportDto;
using api::TableDto;
using api::WidgetEventRequest;

// ----------------------------------------------------------- JSON model

TEST(Json, ScalarRoundTrips) {
  for (const char* text : {"null", "true", "false", "0", "-7", "42",
                           "9223372036854775807", "-9223372036854775808",
                           "0.5", "-3.25", "1e3", "\"\"", "\"abc\"",
                           "\"a\\nb\\\"c\\\\\"", "[]", "{}",
                           "[1,2.5,\"x\",null,true]",
                           "{\"a\":1,\"b\":[{\"c\":null}]}"}) {
    auto v = ParseJson(text);
    ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    auto again = ParseJson(WriteJson(*v));
    ASSERT_TRUE(again.ok()) << text;
    EXPECT_EQ(*v, *again) << text;
  }
}

TEST(Json, NumericKindsAreExact) {
  auto v = ParseJson("[1, 1.0, 1e0]");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->items()[0].is_int());
  EXPECT_TRUE(v->items()[1].is_double());
  EXPECT_TRUE(v->items()[2].is_double());
  // Int(1) and Double(1.0) are distinct values under the exact-equality
  // contract, and the writer keeps them distinguishable on the wire.
  EXPECT_NE(v->items()[0], v->items()[1]);
  EXPECT_EQ(WriteJson(v->items()[0]), "1");
  EXPECT_EQ(WriteJson(v->items()[1]), "1.0");

  // Round-trip precision: doubles survive exactly.
  for (double d : {0.1, 1.0 / 3.0, 1e-300, 1.7976931348623157e308,
                   5e-324, 123456789.123456789}) {
    auto parsed = ParseJson(WriteJson(JsonValue::Double(d)));
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed->is_double()) << d;
    EXPECT_EQ(parsed->AsDouble(), d);
  }
  // int64 extremes survive exactly as ints.
  for (int64_t i : {INT64_MIN, INT64_MAX, int64_t{0}, int64_t{-1}}) {
    auto parsed = ParseJson(WriteJson(JsonValue::Int(i)));
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed->is_int());
    EXPECT_EQ(parsed->AsInt(), i);
  }
}

TEST(Json, UnicodeEscapes) {
  auto v = ParseJson("\"a\\u00e9\\u4e2d\\ud83d\\ude00\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80");
  // Escaped output re-parses to the same string.
  auto again = ParseJson(WriteJson(*v));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*v, *again);
}

TEST(Json, MalformedInputsAreParseErrors) {
  for (const char* text :
       {"", "   ", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nul",
        "01", "1.", "1e", "+1", "\"unterminated", "\"bad\\q\"",
        "\"\\ud800\"", "{\"a\":1,}", "[1,2],", "{\"a\":1}{", "\x01",
        "{\"a\":1,\"a\":2}"}) {
    auto v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) EXPECT_EQ(v.status().code(), StatusCode::kParseError) << text;
  }
}

TEST(Json, DepthGuardRejectsDeepNesting) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  auto v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

// ----------------------------------------------------- DTO round-trips

/// The canonical round-trip: DTO -> JSON tree -> wire text -> JSON tree ->
/// DTO, compared for exact equality.
template <typename T>
void ExpectRoundTrip(const T& x) {
  JsonValue tree = x.ToJson();
  auto reparsed = ParseJson(WriteJson(tree));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  auto back = T::FromJson(*reparsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << WriteJson(tree);
  EXPECT_TRUE(*back == x) << WriteJson(tree);
}

Value RandomValue(Rng* rng) {
  switch (rng->UniformIndex(5)) {
    case 0:
      return Value();
    case 1:
      return Value(rng->UniformInt(INT64_MIN, INT64_MAX));
    case 2:
      return Value(rng->UniformDouble(-1e6, 1e6));
    case 3:
      return Value(rng->UniformDouble(0, 1) * 1e-12);
    default: {
      std::string s;
      for (int i = rng->UniformInt(0, 8); i > 0; --i) {
        s.push_back(static_cast<char>(rng->UniformInt(1, 126)));  // incl. ctrl
      }
      return Value(std::move(s));
    }
  }
}

ApiOptions RandomOptions(Rng* rng) {
  ApiOptions o;
  o.algorithm = rng->Choice<std::string>(
      {"mcts", "random", "greedy", "beam", "exhaustive", "bottom-up"});
  o.backend = rng->Choice<std::string>({"reference", "columnar", "sqlite"});
  o.parallel_mode = "root";
  o.time_budget_ms = rng->UniformInt(0, 600000);
  o.max_iterations = rng->UniformInt(1, 1 << 20);
  o.seed = rng->UniformInt(0, INT64_MAX);
  o.screen_width = rng->UniformInt(10, 10000);
  o.screen_height = rng->UniformInt(5, 10000);
  o.num_threads = rng->UniformInt(1, 64);
  o.k_assignments = rng->UniformInt(1, 64);
  o.use_priors = rng->Bernoulli(0.5);
  o.progressive_widening = rng->Bernoulli(0.5);
  o.delta_cost_eval = rng->Bernoulli(0.5);
  return o;
}

WidgetEventRequest RandomEvent(Rng* rng) {
  WidgetEventRequest e;
  switch (rng->UniformIndex(4)) {
    case 0:
      e.kind = "set_any";
      e.choice_id = rng->UniformInt(0, 500);
      e.option_index = rng->UniformInt(0, 50);
      break;
    case 1:
      e.kind = "set_opt";
      e.choice_id = rng->UniformInt(0, 500);
      e.present = rng->Bernoulli(0.5);
      break;
    case 2:
      e.kind = "set_multi";
      e.choice_id = rng->UniformInt(0, 500);
      e.count = rng->UniformInt(0, 5);
      break;
    default:
      e.kind = "load_query";
      e.sql = "select a from t where x < " + std::to_string(rng->UniformInt(0, 99));
      break;
  }
  return e;
}

TEST(Dto, FuzzedRequestRoundTrips) {
  Rng rng(2026);
  for (int i = 0; i < 300; ++i) {
    GenerateRequest req;
    req.workload = rng.Choice<std::string>({"", "flights", "sdss", "synthetic"});
    for (int q = rng.UniformInt(0, 4); q > 0; --q) {
      req.sqls.push_back("select a from t where x between " +
                         std::to_string(rng.UniformInt(-5, 5)) + " and " +
                         std::to_string(rng.UniformInt(6, 99)));
    }
    req.options = RandomOptions(&rng);
    ExpectRoundTrip(req);
    ExpectRoundTrip(req.options);
    ExpectRoundTrip(RandomEvent(&rng));
  }
}

TEST(Dto, FuzzedTableAndBatchRoundTrips) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    TableDto t;
    const size_t cols = rng.UniformIndex(4) + 1;
    for (size_t c = 0; c < cols; ++c) t.columns.push_back("c" + std::to_string(c));
    for (int r = rng.UniformInt(0, 6); r > 0; --r) {
      std::vector<Value> row;
      for (size_t c = 0; c < cols; ++c) row.push_back(RandomValue(&rng));
      t.rows.push_back(std::move(row));
    }
    ExpectRoundTrip(t);

    ChangeBatchDto b;
    b.from_version = rng.UniformInt(0, 1000);
    b.to_version = b.from_version + rng.UniformInt(0, 10);
    b.last_step.transition = rng.Choice<std::string>(
        {"noop", "tighten", "loosen", "limit_only", "rebind", "shape_change"});
    b.last_step.incremental = rng.Bernoulli(0.5);
    b.last_step.rows = rng.UniformInt(0, 500);
    b.last_step.interaction_cost = rng.UniformDouble(0, 10);
    for (int c = rng.UniformInt(0, 5); c > 0; --c) {
      RowChangeDto change;
      change.kind = rng.Choice<std::string>({"add", "remove", "update"});
      for (size_t k = 0; k < cols; ++k) change.row.push_back(RandomValue(&rng));
      if (change.kind == "update") {
        for (size_t k = 0; k < cols; ++k) {
          change.old_row.push_back(RandomValue(&rng));
        }
      }
      b.changes.push_back(std::move(change));
    }
    ExpectRoundTrip(b);
  }
}

TEST(Dto, ErrorBodyMapsStatusBothWays) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kParseError, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
        StatusCode::kUnimplemented, StatusCode::kInternal, StatusCode::kCancelled,
        StatusCode::kUnavailable}) {
    Status s(code, "boom");
    ErrorBody e = ErrorBody::FromStatus(s);
    EXPECT_EQ(e.code, StatusCodeName(code));
    Status back = e.ToStatus();
    EXPECT_EQ(back.code(), code);
    EXPECT_EQ(back.message(), "boom");
    ExpectRoundTrip(e);
  }
  ErrorBody unknown{"NoSuchCode", "m"};
  EXPECT_EQ(unknown.ToStatus().code(), StatusCode::kInternal);
}

// Pins the retry contract (docs/api.md): exactly ResourceExhausted and
// Unavailable are transient; the bit is derived at encode time, always
// emitted, and absent-on-decode means not retryable (pre-retryable wire).
TEST(Dto, ErrorBodyRetryableIsDerivedAndPinned) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kCancelled}) {
    EXPECT_FALSE(ErrorBody::RetryableCode(code)) << StatusCodeName(code);
  }
  EXPECT_TRUE(ErrorBody::RetryableCode(StatusCode::kResourceExhausted));
  EXPECT_TRUE(ErrorBody::RetryableCode(StatusCode::kUnavailable));

  ErrorBody transient = ErrorBody::FromStatus(Status::Unavailable("down"));
  EXPECT_TRUE(transient.retryable);
  EXPECT_NE(WriteJson(transient.ToJson()).find("\"retryable\":true"),
            std::string::npos);
  ErrorBody permanent = ErrorBody::FromStatus(Status::NotFound("gone"));
  EXPECT_FALSE(permanent.retryable);
  EXPECT_NE(WriteJson(permanent.ToJson()).find("\"retryable\":false"),
            std::string::npos);

  auto legacy = ParseJson(R"({"code":"NotFound","message":"m"})");
  ASSERT_TRUE(legacy.ok());
  auto decoded = ErrorBody::FromJson(*legacy);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->retryable);
}

// Pins the JobResultDto wire contract: one shared shape, two legacy field
// spellings — "result"/"error" on JobStatusResponse, "partial"/"error" on
// JobProgressResponse — with absent halves omitted rather than null.
TEST(Dto, JobResultDtoKeepsLegacyWireNames) {
  api::JobResultDto failed;
  failed.error = ErrorBody::FromStatus(Status::Internal("boom"));

  api::JobStatusResponse status;
  status.job_id = "j-1";
  status.state = "failed";
  status.result = failed;
  JsonValue status_wire = status.ToJson();
  EXPECT_EQ(status_wire.Find("result"), nullptr);   // absent, not null
  EXPECT_EQ(status_wire.Find("partial"), nullptr);  // never this spelling
  ASSERT_NE(status_wire.Find("error"), nullptr);
  auto status_back = api::JobStatusResponse::FromJson(status_wire);
  ASSERT_TRUE(status_back.ok());
  EXPECT_EQ(*status_back, status);

  api::JobProgressResponse progress;
  progress.job_id = "j-1";
  progress.state = "running";
  progress.version = 2;
  progress.result.value = api::GenerateResponse{};
  progress.result.value->job_id = "j-1";
  JsonValue progress_wire = progress.ToJson();
  ASSERT_NE(progress_wire.Find("partial"), nullptr);
  EXPECT_EQ(progress_wire.Find("result"), nullptr);  // never this spelling
  EXPECT_EQ(progress_wire.Find("error"), nullptr);
  auto progress_back = api::JobProgressResponse::FromJson(progress_wire);
  ASSERT_TRUE(progress_back.ok());
  EXPECT_EQ(*progress_back, progress);
}

// ----------------------------------------------------- codec error paths

TEST(Dto, UnknownTopLevelFieldRejected) {
  auto v = ParseJson(R"({"workload":"flights","sqls":[],"surprise":1})");
  ASSERT_TRUE(v.ok());
  auto req = GenerateRequest::FromJson(*v);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(req.status().message().find("surprise"), std::string::npos);
}

TEST(Dto, UnknownOptionFieldRejected) {
  auto v = ParseJson(R"({"options":{"seeed":42}})");
  ASSERT_TRUE(v.ok());
  auto req = GenerateRequest::FromJson(*v);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(req.status().message().find("seeed"), std::string::npos);
}

TEST(Dto, WrongTypeFieldsRejected) {
  // sqls as string, seed as string, use_priors as int, workload as number.
  for (const char* text :
       {R"({"sqls":"select a from t"})", R"({"options":{"seed":"42"}})",
        R"({"options":{"use_priors":1}})", R"({"workload":3})",
        R"({"options":{"time_budget_ms":12.5}})"}) {
    auto v = ParseJson(text);
    ASSERT_TRUE(v.ok()) << text;
    auto req = GenerateRequest::FromJson(*v);
    ASSERT_FALSE(req.ok()) << text;
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(Dto, OutOfRangeOptionsRejected) {
  {
    ApiOptions o;
    o.screen_width = 3;
    EXPECT_EQ(o.ToGeneratorOptions().status().code(), StatusCode::kOutOfRange);
  }
  {
    ApiOptions o;
    o.num_threads = 1000;
    EXPECT_EQ(o.ToGeneratorOptions().status().code(), StatusCode::kOutOfRange);
  }
  {
    ApiOptions o;  // unbounded search forbidden at the API boundary
    o.time_budget_ms = 0;
    o.max_iterations = 0;
    EXPECT_EQ(o.ToGeneratorOptions().status().code(), StatusCode::kOutOfRange);
  }
  {
    ApiOptions o;
    o.algorithm = "magic";
    EXPECT_EQ(o.ToGeneratorOptions().status().code(), StatusCode::kInvalidArgument);
  }
  {
    ApiOptions o;
    o.backend = "oracle";
    EXPECT_EQ(o.ToGeneratorOptions().status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Dto, RemovedLeafParallelModeRejected) {
  ApiOptions o;
  o.parallel_mode = "leaf";
  auto converted = o.ToGeneratorOptions();
  ASSERT_FALSE(converted.ok());
  EXPECT_EQ(converted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(converted.status().message(),
            "parallel_mode 'leaf' was removed; only 'root' is supported");
  o.parallel_mode = "root";
  EXPECT_TRUE(o.ToGeneratorOptions().ok());
}

TEST(Dto, EventKindFieldMismatchRejected) {
  // A field outside the kind's set is a loud error, not silently ignored.
  auto v = ParseJson(R"({"kind":"set_opt","choice_id":1,"present":true,"count":2})");
  ASSERT_TRUE(v.ok());
  auto e = WidgetEventRequest::FromJson(*v);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);

  auto v2 = ParseJson(R"({"kind":"warp","choice_id":1})");
  ASSERT_TRUE(v2.ok());
  EXPECT_FALSE(WidgetEventRequest::FromJson(*v2).ok());
}

TEST(Dto, ApiOptionsDefaultsMirrorGeneratorOptions) {
  // The flat wire defaults and the internal defaults must not drift.
  ApiOptions wire;
  GeneratorOptions internal;
  ApiOptions mirrored = ApiOptions::FromGeneratorOptions(internal);
  mirrored.time_budget_ms = wire.time_budget_ms;  // equal anyway; be explicit
  EXPECT_TRUE(wire == mirrored);
  auto converted = wire.ToGeneratorOptions();
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(converted->backend, internal.backend);
  EXPECT_EQ(converted->algorithm, internal.algorithm);
  EXPECT_EQ(converted->search.seed, internal.search.seed);
}

// ------------------------------------------------------------ ApiService

ApiService::Options SmallServiceOptions() {
  ApiService::Options o;
  o.workload_rows = 300;  // small stores keep generation + execution fast
  o.service.num_threads = 2;
  return o;
}

ApiOptions FastGenOptions() {
  ApiOptions o;
  o.time_budget_ms = 0;  // iteration-capped: deterministic
  o.max_iterations = 12;
  o.seed = 5;
  o.screen_width = 90;
  o.screen_height = 32;
  return o;
}

/// Waits (bounded) for a job to reach a terminal state.
api::JobStatusResponse AwaitJob(ApiService* svc, const std::string& job_id) {
  auto status = svc->GetJob(job_id, /*wait_ms=*/30000);
  EXPECT_TRUE(status.ok()) << status.status().ToString();
  return status.ok() ? *status : api::JobStatusResponse{};
}

TEST(ApiService, GenerateJobLifecycle) {
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->job_id.rfind("j-", 0), 0u);

  api::JobStatusResponse done = AwaitJob(svc->get(), accepted->job_id);
  ASSERT_EQ(done.state, "done");
  ASSERT_TRUE(done.result.value.has_value());
  EXPECT_EQ(done.result.value->workload, "flights");
  EXPECT_EQ(done.result.value->algorithm, "mcts");
  EXPECT_EQ(done.result.value->backend, "columnar");
  EXPECT_GT(done.result.value->stats.iterations, 0);
  EXPECT_TRUE(done.result.value->widgets.is_object());
  EXPECT_NE(done.result.value->widgets.Find("widget"), nullptr);
  const JsonValue* valid = done.result.value->cost.Find("valid");
  ASSERT_NE(valid, nullptr);
  EXPECT_EQ(*valid, JsonValue::Bool(true));
  ExpectRoundTrip(done);  // the full job-status DTO round-trips exactly

  // Identical resubmission: cache hit.
  auto again = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(again.ok());
  api::JobStatusResponse cached = AwaitJob(svc->get(), again->job_id);
  EXPECT_EQ(cached.state, "done");
  EXPECT_TRUE(cached.cache_hit);

  // Unknown & malformed ids.
  EXPECT_EQ((*svc)->GetJob("j-99999").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*svc)->GetJob("jobby").status().code(), StatusCode::kInvalidArgument);
  // Overflowing numeric suffixes must be rejected, not wrapped mod 2^64 —
  // "j-18446744073709551617" would otherwise alias job 1.
  EXPECT_EQ((*svc)->GetJob("j-18446744073709551617").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*svc)->CancelJob("j-18446744073709551617").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE((*svc)->GetJob("j-18446744073709551615").status().code() ==
              StatusCode::kNotFound);  // UINT64_MAX itself parses, just unknown

  // Bad requests.
  GenerateRequest empty;
  EXPECT_EQ((*svc)->SubmitGenerate(empty).status().code(),
            StatusCode::kInvalidArgument);
  GenerateRequest unknown_workload;
  unknown_workload.workload = "martian";
  EXPECT_EQ((*svc)->SubmitGenerate(unknown_workload).status().code(),
            StatusCode::kNotFound);
}

TEST(ApiService, BoundedQueueSurfacesResourceExhausted) {
  ApiService::Options opts = SmallServiceOptions();
  opts.service.num_threads = 1;
  opts.service.max_pending_jobs = 1;
  opts.service.cache_capacity = 0;
  auto svc = ApiService::Create(opts);
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  req.options.max_iterations = 60;  // keep the worker busy a moment
  auto first = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(first.ok());
  req.options.seed = 6;
  auto second = (*svc)->SubmitGenerate(req);
  req.options.seed = 7;
  auto third = (*svc)->SubmitGenerate(req);
  EXPECT_TRUE(!second.ok() || !third.ok());
  if (!second.ok()) {
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  }
  if (!third.ok()) {
    EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  }
  AwaitJob(svc->get(), first->job_id);
}

/// Extracts (choice_id, option_count, widget kind) triples from the widgets
/// JSON — the generic way an HTTP client discovers what it can manipulate.
void CollectChoices(const JsonValue& node,
                    std::vector<std::tuple<int64_t, int64_t, std::string>>* out) {
  const JsonValue* choice = node.Find("choice");
  const JsonValue* widget = node.Find("widget");
  if (choice != nullptr && widget != nullptr) {
    const JsonValue* options = node.Find("options");
    out->emplace_back(choice->AsInt(),
                      options != nullptr ? static_cast<int64_t>(options->size()) : 0,
                      widget->AsString());
  }
  const JsonValue* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const JsonValue& c : children->items()) CollectChoices(c, out);
  }
}

TEST(ApiService, SessionDifferentialAgainstInProcessRuntime) {
  // The acceptance path: drive a session through the API DTOs and an
  // InteractiveRuntime directly, applying the same events to both; every
  // response table must be bit-identical (exact Value kinds) to the
  // in-process runtime's result after crossing the JSON boundary.
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());

  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  api::JobStatusResponse done = AwaitJob(svc->get(), accepted->job_id);
  ASSERT_EQ(done.state, "done");

  // In-process arm: same deterministic generation over the same store.
  auto bundle = LoadWorkload("flights", 300);
  ASSERT_TRUE(bundle.ok());
  auto gen_opts = req.options.ToGeneratorOptions();
  ASSERT_TRUE(gen_opts.ok());
  auto iface = GenerateInterface(bundle->log, *gen_opts);
  ASSERT_TRUE(iface.ok());
  auto backend = MakeBackendFor(*bundle, gen_opts->backend);
  ASSERT_TRUE(backend.ok());
  std::shared_ptr<ExecutionBackend> shared_backend(std::move(*backend));
  auto runtime = InteractiveRuntime::Create(*iface, gen_opts->constants,
                                            shared_backend);
  ASSERT_TRUE(runtime.ok());

  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Same initial table.
  {
    auto in_proc = (*runtime)->CurrentResult();
    ASSERT_TRUE(in_proc.ok());
    EXPECT_TRUE(session->table == TableDto::FromTable(*in_proc));
    auto in_proc_sql = (*runtime)->CurrentSql();
    ASSERT_TRUE(in_proc_sql.ok());
    EXPECT_EQ(session->sql, *in_proc_sql);
  }

  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(session->widgets, &choices);
  ASSERT_FALSE(choices.empty());

  // Drive every discovered widget through both arms.
  size_t applied = 0;
  for (const auto& [choice_id, option_count, kind] : choices) {
    std::vector<WidgetEventRequest> events;
    if (kind == "Checkbox" || kind == "Toggle") {
      WidgetEventRequest off, on;
      off.kind = "set_opt";
      off.choice_id = choice_id;
      off.present = false;
      on = off;
      on.present = true;
      events = {off, on};
    } else if (option_count > 0) {
      for (int64_t i = 0; i < std::min<int64_t>(option_count, 3); ++i) {
        WidgetEventRequest e;
        e.kind = "set_any";
        e.choice_id = choice_id;
        e.option_index = i;
        events.push_back(e);
      }
    }
    for (const WidgetEventRequest& event : events) {
      auto api_step = (*svc)->ApplyEvent(session->session_id, event);
      Result<InteractiveRuntime::StepReport> in_proc_step =
          event.kind == "set_opt"
              ? (*runtime)->SetOptPresent(static_cast<int>(event.choice_id),
                                          event.present)
              : (*runtime)->SetAnyChoice(static_cast<int>(event.choice_id),
                                         static_cast<int>(event.option_index));
      // Both arms accept or both reject.
      ASSERT_EQ(api_step.ok(), in_proc_step.ok())
          << event.kind << " choice " << event.choice_id << ": api="
          << api_step.status().ToString()
          << " in-proc=" << in_proc_step.status().ToString();
      if (!api_step.ok()) continue;
      ++applied;
      EXPECT_EQ(api_step->report.transition,
                TransitionClassName(in_proc_step->transition));
      EXPECT_EQ(api_step->report.rows,
                static_cast<int64_t>(in_proc_step->rows));
      auto api_table = (*svc)->SessionTable(session->session_id);
      auto in_proc_table = (*runtime)->CurrentResult();
      ASSERT_TRUE(api_table.ok());
      ASSERT_TRUE(in_proc_table.ok());
      EXPECT_TRUE(*api_table == TableDto::FromTable(*in_proc_table))
          << "table diverged after " << event.kind << " on choice "
          << event.choice_id;
      auto api_sql = api_step->sql;
      auto in_proc_sql = (*runtime)->CurrentSql();
      ASSERT_TRUE(in_proc_sql.ok());
      EXPECT_EQ(api_sql, *in_proc_sql);
    }
  }
  EXPECT_GT(applied, 4u) << "differential walk exercised too few events";
}

/// Applies a ChangeBatchDto to a multiset of rows (the documented feed
/// contract: remove one equal row / append / replace).
void ApplyBatch(const ChangeBatchDto& batch, std::vector<std::vector<Value>>* rows) {
  auto remove_one = [&](const std::vector<Value>& row) {
    auto it = std::find(rows->begin(), rows->end(), row);
    ASSERT_NE(it, rows->end()) << "feed removed a row the client never had";
    rows->erase(it);
  };
  for (const RowChangeDto& c : batch.changes) {
    if (c.kind == "add") {
      rows->push_back(c.row);
    } else if (c.kind == "remove") {
      remove_one(c.row);
    } else {
      remove_one(c.old_row);
      rows->push_back(c.row);
    }
  }
}

TEST(ApiService, FeedMirrorsSessionTable) {
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");
  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok());

  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(session->widgets, &choices);
  std::vector<std::vector<Value>> mirror = session->table.rows;

  size_t steps = 0;
  Rng rng(3);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [choice_id, option_count, kind] : choices) {
      WidgetEventRequest e;
      if (kind == "Checkbox" || kind == "Toggle") {
        e.kind = "set_opt";
        e.choice_id = choice_id;
        e.present = rng.Bernoulli(0.5);
      } else if (option_count > 0) {
        e.kind = "set_any";
        e.choice_id = choice_id;
        e.option_index = rng.UniformInt(0, option_count - 1);
      } else {
        continue;
      }
      if (!(*svc)->ApplyEvent(session->session_id, e).ok()) continue;
      ++steps;
      auto batch = (*svc)->PollSession(session->session_id);
      ASSERT_TRUE(batch.ok());
      ApplyBatch(*batch, &mirror);
      if (HasFatalFailure()) return;
      auto table = (*svc)->SessionTable(session->session_id);
      ASSERT_TRUE(table.ok());
      auto sorted = [](std::vector<std::vector<Value>> rows) {
        std::sort(rows.begin(), rows.end(),
                  [](const std::vector<Value>& a, const std::vector<Value>& b) {
                    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
                      int c = a[i].Compare(b[i]);
                      if (c != 0) return c < 0;
                    }
                    return a.size() < b.size();
                  });
        return rows;
      };
      EXPECT_EQ(sorted(mirror).size(), sorted(table->rows).size());
      EXPECT_TRUE(sorted(mirror) == sorted(table->rows))
          << "feed mirror diverged at step " << steps;
    }
  }
  EXPECT_GT(steps, 5u);
}

TEST(ApiService, SessionTtlEvictsIdleSessions) {
  ApiService::Options opts = SmallServiceOptions();
  opts.session_ttl_ms = 50;
  auto svc = ApiService::Create(opts);
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "synthetic";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");
  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*svc)->sessions_active(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // Any session access sweeps; the idle session is gone.
  auto poll = (*svc)->PollSession(session->session_id);
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*svc)->sessions_active(), 0u);
  auto stats = (*svc)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions_expired, 1);
}

TEST(ApiService, EventBoundsRejectedBeforeTouchingSession) {
  // Wire-sized int64 fields must be range-checked before they narrow to the
  // session's int/size_t signatures — in particular `count` sizes an
  // allocation (children.assign), so a huge value must answer OutOfRange,
  // never allocate.
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "synthetic";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");
  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok());

  auto expect_out_of_range = [&](const WidgetEventRequest& e) {
    auto step = (*svc)->ApplyEvent(session->session_id, e);
    ASSERT_FALSE(step.ok());
    EXPECT_EQ(step.status().code(), StatusCode::kOutOfRange)
        << e.kind << ": " << step.status().ToString();
  };

  WidgetEventRequest e;
  e.kind = "set_multi";
  e.choice_id = 0;
  e.count = 1'000'000'000'000'000;  // would assign() this many Derivations
  expect_out_of_range(e);
  e.count = static_cast<int64_t>(InterfaceSession::kMaxMultiCount) + 1;
  expect_out_of_range(e);
  e.count = -1;
  expect_out_of_range(e);

  e = WidgetEventRequest();
  e.kind = "set_any";
  e.choice_id = int64_t{1} << 40;  // would wrap via static_cast<int>
  e.option_index = 0;
  expect_out_of_range(e);
  e.choice_id = 0;
  e.option_index = int64_t{1} << 40;
  expect_out_of_range(e);
}

TEST(ApiService, CatalogAndStats) {
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  api::CatalogResponse catalog = *(*svc)->Catalog();
  ASSERT_EQ(catalog.workloads.size(), 3u);
  std::vector<std::string> names;
  for (const auto& w : catalog.workloads) {
    names.push_back(w.name);
    EXPECT_GT(w.queries, 0);
    ASSERT_FALSE(w.tables.empty());
    EXPECT_GT(w.tables[0].rows, 0);
    EXPECT_GT(w.tables[0].columns, 0);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "flights"), names.end());
  EXPECT_FALSE(catalog.backends.empty());
  EXPECT_EQ(catalog.backends[0], "reference");
  ExpectRoundTrip(catalog);

  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");
  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok());

  api::StatsResponse stats = *(*svc)->Stats();
  EXPECT_EQ(stats.jobs_submitted, 1);
  EXPECT_EQ(stats.sessions_active, 1);
  EXPECT_EQ(stats.sessions_opened, 1);
  ASSERT_FALSE(stats.backends.empty());
  EXPECT_EQ(stats.backends[0].workload, "flights");
  // The delta-capable execution path runs plans directly, so `executions`
  // may stay 0 — plan compilations always register.
  EXPECT_GT(stats.backends[0].prepares, 0);
  ExpectRoundTrip(stats);
}

TEST(ApiService, StatsMatchesRegistryDeltas) {
  // /v1/stats and /v1/metrics are two views of the same events: every
  // StatsResponse counter must equal the delta of its registry metric across
  // the test body (deltas, because the process-global registry accumulates
  // across tests while each service instance starts at zero).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t base_submitted = reg.CounterTotal("ifgen_jobs_submitted_total");
  const uint64_t base_executed = reg.CounterTotal("ifgen_jobs_executed_total");
  const uint64_t base_cache_hits = reg.CounterTotal("ifgen_jobs_cache_hits_total");
  const uint64_t base_sessions = reg.CounterTotal("ifgen_sessions_opened_total");
  const uint64_t base_expired = reg.CounterTotal("ifgen_sessions_expired_total");
  const uint64_t base_steps = reg.CounterTotal("ifgen_runtime_steps_total");
  auto path_total = [&reg](const char* path) {
    return reg.CounterValue("ifgen_runtime_path_total", {{"path", path}});
  };
  const uint64_t base_noop = path_total("noop");
  const uint64_t base_full = path_total("full_exec");

  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");
  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok());

  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(session->widgets, &choices);
  ASSERT_FALSE(choices.empty());
  for (const auto& [choice_id, option_count, kind] : choices) {
    if (kind == "Checkbox" || kind == "Toggle") {
      WidgetEventRequest e;
      e.kind = "set_opt";
      e.choice_id = choice_id;
      e.present = true;
      (void)(*svc)->ApplyEvent(session->session_id, e);
    }
  }

  const api::StatsResponse stats = *(*svc)->Stats();
  EXPECT_EQ(static_cast<uint64_t>(stats.jobs_submitted),
            reg.CounterTotal("ifgen_jobs_submitted_total") - base_submitted);
  EXPECT_EQ(static_cast<uint64_t>(stats.jobs_executed),
            reg.CounterTotal("ifgen_jobs_executed_total") - base_executed);
  EXPECT_EQ(static_cast<uint64_t>(stats.job_cache_hits),
            reg.CounterTotal("ifgen_jobs_cache_hits_total") - base_cache_hits);
  EXPECT_EQ(static_cast<uint64_t>(stats.sessions_opened),
            reg.CounterTotal("ifgen_sessions_opened_total") - base_sessions);
  EXPECT_EQ(static_cast<uint64_t>(stats.sessions_expired),
            reg.CounterTotal("ifgen_sessions_expired_total") - base_expired);
  // Runtime counters: the single session stays open, so the service's sum
  // over open sessions equals the process-wide delta.
  EXPECT_EQ(static_cast<uint64_t>(stats.steps),
            reg.CounterTotal("ifgen_runtime_steps_total") - base_steps);
  EXPECT_EQ(static_cast<uint64_t>(stats.noops), path_total("noop") - base_noop);
  EXPECT_EQ(static_cast<uint64_t>(stats.full_execs),
            path_total("full_exec") - base_full);
  EXPECT_EQ(static_cast<double>(stats.jobs_pending),
            reg.GaugeValue("ifgen_jobs_pending"));
}

TEST(ApiService, JobTraceExportsChromeJson) {
  struct TracingGuard {
    bool prev = obs::TracingEnabled();
    ~TracingGuard() { obs::SetTracingEnabled(prev); }
  } guard;
  obs::SetTracingEnabled(true);

  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");

  auto trace = (*svc)->JobTrace(accepted->job_id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace->find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace->find("\"service.job\""), std::string::npos);

  EXPECT_EQ((*svc)->JobTrace("j-99999").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*svc)->JobTrace("bogus").status().code(),
            StatusCode::kInvalidArgument);

  // Jobs executed while tracing is off have no capture to export.
  obs::SetTracingEnabled(false);
  auto accepted2 = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted2.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted2->job_id).state, "done");
  auto no_trace = (*svc)->JobTrace(accepted2->job_id);
  EXPECT_EQ(no_trace.status().code(), StatusCode::kNotFound);
}

TEST(ApiService, ConcurrentSessionsAndPollers) {
  // TSan target: several threads each own a session and hammer events +
  // feed polls while a stats reader spins.
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "synthetic";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");

  constexpr int kSessions = 3;
  std::vector<std::string> ids;
  std::vector<std::vector<std::tuple<int64_t, int64_t, std::string>>> choices(
      kSessions);
  for (int i = 0; i < kSessions; ++i) {
    SessionOpenRequest open;
    open.job_id = accepted->job_id;
    auto session = (*svc)->OpenSession(open);
    ASSERT_TRUE(session.ok());
    ids.push_back(session->session_id);
    CollectChoices(session->widgets, &choices[i]);
    ASSERT_FALSE(choices[i].empty());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(100 + i);
      for (int step = 0; step < 40; ++step) {
        const auto& [choice_id, option_count, kind] = choices[i][rng.UniformIndex(
            choices[i].size())];
        WidgetEventRequest e;
        if (kind == "Checkbox" || kind == "Toggle") {
          e.kind = "set_opt";
          e.choice_id = choice_id;
          e.present = rng.Bernoulli(0.5);
        } else if (option_count > 0) {
          e.kind = "set_any";
          e.choice_id = choice_id;
          e.option_index = rng.UniformInt(0, option_count - 1);
        } else {
          continue;
        }
        (void)(*svc)->ApplyEvent(ids[i], e);  // failures are fine; races not
        (void)(*svc)->PollSession(ids[i]);
      }
    });
    threads.emplace_back([&, i] {
      while (!stop.load()) {
        (void)(*svc)->PollSession(ids[i]);
        (void)(*svc)->Stats();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (int i = 0; i < kSessions; ++i) threads[2 * i].join();
  stop.store(true);
  for (int i = 0; i < kSessions; ++i) threads[2 * i + 1].join();
  for (const std::string& id : ids) EXPECT_TRUE((*svc)->CloseSession(id).ok());
  EXPECT_EQ((*svc)->sessions_active(), 0u);
}

TEST(ApiService, ConcurrentEventsOnOneSessionGetAtomicBatches) {
  // Step + event-subscriber drain are atomic per session: each successful
  // StepResponse.batch must cover exactly its own step's version range, so
  // the ranges collected across threads tile [initial, final] without
  // overlap (a racy drain yields one batch spanning two steps and another
  // empty one).
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  GenerateRequest req;
  req.workload = "synthetic";
  req.options = FastGenOptions();
  auto accepted = (*svc)->SubmitGenerate(req);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");
  SessionOpenRequest open;
  open.job_id = accepted->job_id;
  auto session = (*svc)->OpenSession(open);
  ASSERT_TRUE(session.ok());
  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(session->widgets, &choices);
  ASSERT_FALSE(choices.empty());

  constexpr int kThreads = 4;
  std::mutex ranges_mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(200 + t);
      for (int step = 0; step < 25; ++step) {
        const auto& [choice_id, option_count, kind] =
            choices[rng.UniformIndex(choices.size())];
        WidgetEventRequest e;
        if (kind == "Checkbox" || kind == "Toggle") {
          e.kind = "set_opt";
          e.choice_id = choice_id;
          e.present = rng.Bernoulli(0.5);
        } else if (option_count > 0) {
          e.kind = "set_any";
          e.choice_id = choice_id;
          e.option_index = rng.UniformInt(0, option_count - 1);
        } else {
          continue;
        }
        auto resp = (*svc)->ApplyEvent(session->session_id, e);
        if (!resp.ok()) continue;
        std::lock_guard<std::mutex> lock(ranges_mu);
        ranges.emplace_back(resp->batch.from_version, resp->batch.to_version);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_GT(ranges.size(), 10u);
  std::sort(ranges.begin(), ranges.end());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_LT(ranges[i].first, ranges[i].second)
        << "step " << i << " drained an empty batch";
    if (i > 0) {
      EXPECT_EQ(ranges[i].first, ranges[i - 1].second)
          << "batch " << i << " overlaps or skips its neighbor";
    }
  }
}

}  // namespace
}  // namespace ifgen
