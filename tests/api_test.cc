// v1 API layer tests: the JSON value model, the DTO codec (exact
// round-trips + structured error paths), and the transport-agnostic
// ApiService facade driven end-to-end — with the session arm checked
// differentially against an InteractiveRuntime driven in-process
// (bit-identical tables across the DTO boundary).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <thread>

#include "api/api_service.h"
#include "api/dto.h"
#include "api/rpc.h"
#include "core/interface_generator.h"
#include "core/session.h"
#include "engine/backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/parser.h"
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

// ------------------------------------------------------------- wire pins
//
// One fully populated, non-default instance per DTO: exact wire bytes
// (field names and order), an exact round trip, the unknown-field guard
// with the DTO's error name, every encoded leaf taking part in equality,
// and the exact message of one missing-required or wrong-kind field.

void CollectLeafPaths(const JsonValue& v, std::vector<size_t>* path,
                      std::vector<std::vector<size_t>>* out) {
  const size_t n = v.is_array() || v.is_object() ? v.size() : 0;
  if (n == 0) {
    out->push_back(*path);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    path->push_back(i);
    CollectLeafPaths(v.is_array() ? v.items()[i] : v.members()[i].second, path, out);
    path->pop_back();
  }
}

/// Replaces a leaf by another value of the same kind (null becomes an
/// integer; an empty container gains an element).
void MutateLeaf(JsonValue* leaf) {
  switch (leaf->kind()) {
    case JsonValue::Kind::kNull:
      *leaf = JsonValue::Int(7);
      break;
    case JsonValue::Kind::kBool:
      *leaf = JsonValue::Bool(!leaf->AsBool());
      break;
    case JsonValue::Kind::kInt:
      *leaf = JsonValue::Int(leaf->AsInt() == INT64_MAX ? 0 : leaf->AsInt() + 1);
      break;
    case JsonValue::Kind::kDouble:
      *leaf = JsonValue::Double(leaf->AsDouble() + 0.5);
      break;
    case JsonValue::Kind::kString:
      *leaf = JsonValue::Str(leaf->AsString() + "~");
      break;
    case JsonValue::Kind::kArray:
      leaf->Append(JsonValue::Int(0));
      break;
    case JsonValue::Kind::kObject:
      leaf->Set("zz", JsonValue::Int(0));
      break;
  }
}

/// Pins `x`'s encoding to `wire` and its decoding to exact equality; a
/// member added under "zz_unknown" is rejected naming `what`, and altering
/// any one leaf of the encoding either fails to decode or decodes unequal
/// (so equality reads every field the wire carries).
template <typename T>
void PinWire(const T& x, const std::string& what, const std::string& wire) {
  const JsonValue doc = x.ToJson();
  EXPECT_EQ(WriteJson(doc), wire);
  ExpectRoundTrip(x);

  JsonValue extra = doc;
  extra.Set("zz_unknown", JsonValue::Int(1));
  auto rejected = T::FromJson(extra);
  ASSERT_FALSE(rejected.ok()) << what;
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(), what + ": unknown field(s) 'zz_unknown'");

  std::vector<size_t> path;
  std::vector<std::vector<size_t>> leaves;
  CollectLeafPaths(doc, &path, &leaves);
  for (const std::vector<size_t>& leaf_path : leaves) {
    JsonValue mutated = doc;
    JsonValue* leaf = &mutated;
    for (size_t i : leaf_path) {
      leaf = leaf->is_array() ? &leaf->items()[i] : &leaf->members()[i].second;
    }
    MutateLeaf(leaf);
    auto back = T::FromJson(mutated);
    EXPECT_FALSE(back.ok() && *back == x) << what << ": " << WriteJson(mutated);
  }
}

/// Pins the exact error `T::FromJson` returns for the document `text`.
template <typename T>
void PinRejection(const std::string& text, StatusCode code,
                  const std::string& message) {
  auto v = ParseJson(text);
  ASSERT_TRUE(v.ok()) << text;
  auto decoded = T::FromJson(*v);
  ASSERT_FALSE(decoded.ok()) << text;
  EXPECT_EQ(decoded.status().code(), code) << text;
  EXPECT_EQ(decoded.status().message(), message) << text;
}

const StatusCode kInvalid = StatusCode::kInvalidArgument;
const StatusCode kRange = StatusCode::kOutOfRange;

ErrorBody PinnedError() { return {"Unavailable", "worker down", true}; }

ApiOptions PinnedOptions() {
  ApiOptions o;
  o.algorithm = "beam";
  o.backend = "reference";
  o.parallel_mode = "leaf";
  o.time_budget_ms = 1500;
  o.max_iterations = 300;
  o.seed = 7;
  o.screen_width = 120;
  o.screen_height = 48;
  o.num_threads = 4;
  o.k_assignments = 16;
  o.use_priors = false;
  o.progressive_widening = false;
  o.delta_cost_eval = false;
  o.experience = true;
  o.deadline_ms = 9000;
  o.target_cost = 20.25;
  o.plateau_fraction = 0.5;
  return o;
}

api::SearchStatsDto PinnedSearchStats() {
  api::SearchStatsDto s;
  s.iterations = 300;
  s.states_expanded = 120;
  s.rollouts = 290;
  s.elapsed_ms = 1450;
  s.trees = 4;
  s.stop_reason = "target";
  s.trace = {{3, 1, 40.5}, {90, 25, 20.25}};
  return s;
}

api::GenerateResponse PinnedResponse() {
  api::GenerateResponse g;
  g.job_id = "j-4";
  g.workload = "sdss";
  g.algorithm = "mcts";
  g.backend = "columnar";
  g.coverage = 0.75;
  g.cost = JsonValue::Object();
  g.cost.Set("total", JsonValue::Double(20.25));
  g.difftree = JsonValue::Object();
  g.difftree.Set("label", JsonValue::Str("ANY"));
  g.widgets = JsonValue::Object();
  g.widgets.Set("kind", JsonValue::Str("vbox"));
  g.stats = PinnedSearchStats();
  return g;
}

TableDto PinnedTable() {
  TableDto t;
  t.columns = {"ra", "name"};
  t.rows = {{Value(int64_t{3}), Value(std::string("x"))},
            {Value(), Value(2.5)}};
  return t;
}

StepReportDto PinnedStepReport() {
  StepReportDto r;
  r.transition = "tighten";
  r.incremental = true;
  r.from_cache = true;
  r.widgets_changed = 2;
  r.interaction_cost = 1.5;
  r.navigation_cost = 0.25;
  r.rows = 40;
  r.rows_added = 3;
  r.rows_removed = 5;
  r.rows_updated = 1;
  return r;
}

ChangeBatchDto PinnedBatch() {
  ChangeBatchDto b;
  b.from_version = 3;
  b.to_version = 5;
  b.last_step = PinnedStepReport();
  RowChangeDto add;
  add.kind = "add";
  add.row = {Value(int64_t{1})};
  RowChangeDto update;
  update.kind = "update";
  update.row = {Value(std::string("b"))};
  update.old_row = {Value(0.5)};
  b.changes = {add, update};
  return b;
}

api::WorkerStatsDto PinnedWorker() {
  api::WorkerStatsDto w;
  w.worker = 2;
  w.address = "127.0.0.1:9001";
  w.healthy = false;
  w.draining = true;
  w.jobs_submitted = 11;
  w.jobs_executed = 12;
  w.jobs_pending = 13;
  w.sessions_active = 14;
  w.rpcs = 15;
  w.rpc_failures = 16;
  w.reconnects = 17;
  return w;
}

TEST(WirePin, ErrorBody) {
  PinWire(PinnedError(), "ErrorBody",
          R"({"code":"Unavailable","message":"worker down","retryable":true})");
  PinRejection<ErrorBody>(R"({"message":"m"})", kInvalid,
                          "ErrorBody: missing required field 'code'");
}

TEST(WirePin, ApiOptions) {
  PinWire(PinnedOptions(), "options",
          R"({"algorithm":"beam","backend":"reference","parallel_mode":"leaf",)"
          R"("time_budget_ms":1500,"max_iterations":300,"seed":7,)"
          R"("screen_width":120,"screen_height":48,"num_threads":4,)"
          R"("k_assignments":16,"use_priors":false,)"
          R"("progressive_widening":false,"delta_cost_eval":false,)"
          R"("experience":true,"deadline_ms":9000,)"
          R"("target_cost":20.25,"plateau_fraction":0.5})");
  PinRejection<ApiOptions>(R"({"seed":"42"})", kInvalid,
                           "options: field 'seed' must be an integer");
}

TEST(WirePin, GenerateRequest) {
  GenerateRequest req;
  req.workload = "flights";
  req.sqls = {"SELECT a FROM t", "SELECT b FROM t"};
  req.options = PinnedOptions();
  PinWire(req, "GenerateRequest",
          R"({"workload":"flights","sqls":["SELECT a FROM t",)"
          R"("SELECT b FROM t"],"options":{"algorithm":"beam",)"
          R"("backend":"reference","parallel_mode":"leaf",)"
          R"("time_budget_ms":1500,"max_iterations":300,"seed":7,)"
          R"("screen_width":120,"screen_height":48,"num_threads":4,)"
          R"("k_assignments":16,"use_priors":false,)"
          R"("progressive_widening":false,"delta_cost_eval":false,)"
          R"("experience":true,"deadline_ms":9000,)"
          R"("target_cost":20.25,"plateau_fraction":0.5}})");
  PinRejection<GenerateRequest>(R"({"sqls":"SELECT a FROM t"})", kInvalid,
                                "GenerateRequest: field 'sqls' must be an array");
  // The cache-peering option is gone from the wire: a request that still
  // sends it fails loudly instead of being silently ignored.
  PinRejection<GenerateRequest>(R"({"options":{"cache_peering":true}})", kInvalid,
                                "options: unknown field(s) 'cache_peering'");
}

TEST(WirePin, GenerateAccepted) {
  PinWire(api::GenerateAccepted{"j-3", "queued"}, "GenerateAccepted",
          R"({"job_id":"j-3","state":"queued"})");
  PinRejection<api::GenerateAccepted>(
      R"({"job_id":"j-3"})", kInvalid,
      "GenerateAccepted: missing required field 'state'");
}

TEST(WirePin, TracePoint) {
  PinWire(api::TracePoint{12, 34, 5.25}, "TracePoint",
          R"({"ms":12,"iteration":34,"cost":5.25})");
  PinRejection<api::TracePoint>(R"({"ms":1.5})", kInvalid,
                                "TracePoint: field 'ms' must be an integer");
}

TEST(WirePin, SearchStatsDto) {
  PinWire(PinnedSearchStats(), "SearchStats",
          R"({"iterations":300,"states_expanded":120,"rollouts":290,)"
          R"("elapsed_ms":1450,"trees":4,"stop_reason":"target",)"
          R"("trace":[{"ms":3,"iteration":1,"cost":40.5},{"ms":90,)"
          R"("iteration":25,"cost":20.25}]})");
  PinRejection<api::SearchStatsDto>(R"({"trace":{}})", kInvalid,
                                    "SearchStats.trace: must be an array");
}

TEST(WirePin, GenerateResponse) {
  PinWire(PinnedResponse(), "GenerateResponse",
          R"({"job_id":"j-4","workload":"sdss","algorithm":"mcts",)"
          R"("backend":"columnar","coverage":0.75,"cost":{"total":20.25},)"
          R"("stats":{"iterations":300,"states_expanded":120,"rollouts":290,)"
          R"("elapsed_ms":1450,"trees":4,"stop_reason":"target",)"
          R"("trace":[{"ms":3,"iteration":1,"cost":40.5},{"ms":90,)"
          R"("iteration":25,"cost":20.25}]},"difftree":{"label":"ANY"},)"
          R"("widgets":{"kind":"vbox"}})");
  PinRejection<api::GenerateResponse>(
      R"({"coverage":"x"})", kInvalid,
      "GenerateResponse: field 'coverage' must be a number");
}

TEST(WirePin, JobStatusResponse) {
  api::JobStatusResponse s;
  s.job_id = "j-4";
  s.state = "cancelled";
  s.cache_hit = true;
  s.queued_ms = 3;
  s.run_ms = 40;
  s.result.value = PinnedResponse();
  s.result.error = ErrorBody{"Cancelled", "cancelled by client", false};
  PinWire(s, "JobStatusResponse",
          R"({"job_id":"j-4","state":"cancelled","cache_hit":true,)"
          R"("queued_ms":3,"run_ms":40,"result":{"job_id":"j-4",)"
          R"("workload":"sdss","algorithm":"mcts","backend":"columnar",)"
          R"("coverage":0.75,"cost":{"total":20.25},"stats":{"iterations":300,)"
          R"("states_expanded":120,"rollouts":290,"elapsed_ms":1450,"trees":4,)"
          R"("stop_reason":"target","trace":[{"ms":3,"iteration":1,)"
          R"("cost":40.5},{"ms":90,"iteration":25,"cost":20.25}]},)"
          R"("difftree":{"label":"ANY"},"widgets":{"kind":"vbox"}},)"
          R"("error":{"code":"Cancelled","message":"cancelled by client",)"
          R"("retryable":false}})");
  PinRejection<api::JobStatusResponse>(
      R"({"job_id":"j-1"})", kInvalid,
      "JobStatusResponse: missing required field 'state'");
}

TEST(WirePin, JobProgressResponse) {
  api::JobProgressResponse p;
  p.job_id = "j-4";
  p.state = "failed";
  p.version = 6;
  p.final_frame = true;
  p.result.value = PinnedResponse();
  p.result.error = ErrorBody{"Internal", "boom", false};
  PinWire(p, "JobProgressResponse",
          R"({"job_id":"j-4","state":"failed","version":6,"final":true,)"
          R"("partial":{"job_id":"j-4","workload":"sdss","algorithm":"mcts",)"
          R"("backend":"columnar","coverage":0.75,"cost":{"total":20.25},)"
          R"("stats":{"iterations":300,"states_expanded":120,"rollouts":290,)"
          R"("elapsed_ms":1450,"trees":4,"stop_reason":"target",)"
          R"("trace":[{"ms":3,"iteration":1,"cost":40.5},{"ms":90,)"
          R"("iteration":25,"cost":20.25}]},"difftree":{"label":"ANY"},)"
          R"("widgets":{"kind":"vbox"}},"error":{"code":"Internal",)"
          R"("message":"boom","retryable":false}})");
  PinRejection<api::JobProgressResponse>(
      R"({"job_id":"j","state":"running","final":1})", kInvalid,
      "JobProgressResponse: field 'final' must be a boolean");
}

TEST(WirePin, SessionOpenRequest) {
  PinWire(SessionOpenRequest{"j-4", "sdss", "reference"}, "SessionOpenRequest",
          R"({"job_id":"j-4","workload":"sdss","backend":"reference"})");
  PinRejection<SessionOpenRequest>(
      R"({"workload":"sdss"})", kInvalid,
      "SessionOpenRequest: missing required field 'job_id'");
}

TEST(WirePin, TableDto) {
  PinWire(PinnedTable(), "Table",
          R"({"columns":["ra","name"],"rows":[[3,"x"],[null,2.5]]})");
  PinRejection<TableDto>(R"({"rows":{}})", kInvalid, "Table: rows must be an array");
  PinRejection<TableDto>(R"({"columns":["a"],"rows":[[1,2]]})", kInvalid,
                         "Table: row arity 2 != column count 1");
}

TEST(WirePin, SessionOpenResponse) {
  api::SessionOpenResponse s;
  s.session_id = "s-2";
  s.sql = "SELECT ra FROM t";
  s.version = 3;
  s.table = PinnedTable();
  s.widgets = JsonValue::Object();
  s.widgets.Set("kind", JsonValue::Str("hbox"));
  PinWire(s, "SessionOpenResponse",
          R"({"session_id":"s-2","sql":"SELECT ra FROM t","version":3,)"
          R"("table":{"columns":["ra","name"],"rows":[[3,"x"],[null,2.5]]},)"
          R"("widgets":{"kind":"hbox"}})");
  PinRejection<api::SessionOpenResponse>(
      R"({"sql":"x"})", kInvalid,
      "SessionOpenResponse: missing required field 'session_id'");
}

TEST(WirePin, WidgetEventRequest) {
  WidgetEventRequest any;
  any.kind = "set_any";
  any.choice_id = 3;
  any.option_index = 1;
  PinWire(any, "WidgetEventRequest",
          R"({"kind":"set_any","choice_id":3,"option_index":1})");
  WidgetEventRequest opt;
  opt.kind = "set_opt";
  opt.choice_id = 4;
  opt.present = true;
  PinWire(opt, "WidgetEventRequest",
          R"({"kind":"set_opt","choice_id":4,"present":true})");
  WidgetEventRequest multi;
  multi.kind = "set_multi";
  multi.choice_id = 2;
  multi.count = 2;
  PinWire(multi, "WidgetEventRequest",
          R"({"kind":"set_multi","choice_id":2,"count":2})");
  WidgetEventRequest load;
  load.kind = "load_query";
  load.sql = "SELECT a FROM t";
  PinWire(load, "WidgetEventRequest",
          R"({"kind":"load_query","sql":"SELECT a FROM t"})");
  PinRejection<WidgetEventRequest>(
      R"({"kind":"set_multi","choice_id":1,"count":-1})", kRange,
      "WidgetEventRequest: field 'count'=-1 outside [0, 9223372036854775807]");
}

TEST(WirePin, StepReportDto) {
  PinWire(PinnedStepReport(), "StepReport",
          R"({"transition":"tighten","incremental":true,"from_cache":true,)"
          R"("widgets_changed":2,"interaction_cost":1.5,"navigation_cost":0.25,)"
          R"("rows":40,"rows_added":3,"rows_removed":5,"rows_updated":1})");
  PinRejection<StepReportDto>(R"({"rows":"1"})", kInvalid,
                              "StepReport: field 'rows' must be an integer");
}

TEST(WirePin, RowChangeDto) {
  PinWire(PinnedBatch().changes[1], "RowChange",
          R"({"kind":"update","row":["b"],"old_row":[0.5]})");
  PinRejection<RowChangeDto>(R"({"kind":"add"})", kInvalid,
                             "RowChange: missing required field 'row'");
}

TEST(WirePin, ChangeBatchDto) {
  PinWire(PinnedBatch(), "ChangeBatch",
          R"({"from_version":3,"to_version":5,)"
          R"("last_step":{"transition":"tighten","incremental":true,)"
          R"("from_cache":true,"widgets_changed":2,"interaction_cost":1.5,)"
          R"("navigation_cost":0.25,"rows":40,"rows_added":3,"rows_removed":5,)"
          R"("rows_updated":1},"changes":[{"kind":"add","row":[1]},)"
          R"({"kind":"update","row":["b"],"old_row":[0.5]}]})");
  PinRejection<ChangeBatchDto>(R"({"changes":3})", kInvalid,
                               "ChangeBatch.changes: must be an array");
}

TEST(WirePin, StepResponse) {
  api::StepResponse s;
  s.session_id = "s-2";
  s.sql = "SELECT ra FROM t WHERE ra < 3";
  s.version = 5;
  s.report = PinnedStepReport();
  s.batch = PinnedBatch();
  PinWire(s, "StepResponse",
          R"({"session_id":"s-2","sql":"SELECT ra FROM t WHERE ra < 3",)"
          R"("version":5,"report":{"transition":"tighten","incremental":true,)"
          R"("from_cache":true,"widgets_changed":2,"interaction_cost":1.5,)"
          R"("navigation_cost":0.25,"rows":40,"rows_added":3,"rows_removed":5,)"
          R"("rows_updated":1},"batch":{"from_version":3,"to_version":5,)"
          R"("last_step":{"transition":"tighten","incremental":true,)"
          R"("from_cache":true,"widgets_changed":2,"interaction_cost":1.5,)"
          R"("navigation_cost":0.25,"rows":40,"rows_added":3,"rows_removed":5,)"
          R"("rows_updated":1},"changes":[{"kind":"add","row":[1]},)"
          R"({"kind":"update","row":["b"],"old_row":[0.5]}]}})");
  PinRejection<api::StepResponse>(
      R"({"version":1})", kInvalid,
      "StepResponse: missing required field 'session_id'");
}

TEST(WirePin, TableInfo) {
  PinWire(api::TableInfo{"photoobj", 10000, 7}, "TableInfo",
          R"({"name":"photoobj","rows":10000,"columns":7})");
  PinRejection<api::TableInfo>(R"({"rows":1})", kInvalid,
                               "TableInfo: missing required field 'name'");
}

TEST(WirePin, WorkloadInfo) {
  api::WorkloadInfo w;
  w.name = "sdss";
  w.queries = 9;
  w.tables = {{"photoobj", 10000, 7}, {"specobj", 500, 3}};
  PinWire(w, "WorkloadInfo",
          R"({"name":"sdss","queries":9,"tables":[{"name":"photoobj",)"
          R"("rows":10000,"columns":7},{"name":"specobj","rows":500,)"
          R"("columns":3}]})");
  PinRejection<api::WorkloadInfo>(R"({"name":"w","tables":[{"rows":1}]})",
                                  kInvalid,
                                  "TableInfo: missing required field 'name'");
}

TEST(WirePin, CatalogResponse) {
  api::CatalogResponse c;
  api::WorkloadInfo w;
  w.name = "flights";
  w.queries = 4;
  w.tables = {{"flights", 2000, 6}};
  c.workloads = {w};
  c.backends = {"reference", "columnar"};
  PinWire(c, "CatalogResponse",
          R"({"workloads":[{"name":"flights","queries":4,)"
          R"("tables":[{"name":"flights","rows":2000,"columns":6}]}],)"
          R"("backends":["reference","columnar"]})");
  PinRejection<api::CatalogResponse>(
      R"({"backends":[1]})", kInvalid,
      "CatalogResponse: field 'backends' must contain strings only");
}

TEST(WirePin, BackendStatsDto) {
  PinWire(api::BackendStatsDto{"sdss", "columnar", 3, 40, 43}, "BackendStats",
          R"({"workload":"sdss","backend":"columnar","prepares":3,)"
          R"("plan_cache_hits":40,"executions":43})");
  PinRejection<api::BackendStatsDto>(
      R"({"workload":"w"})", kInvalid,
      "BackendStats: missing required field 'backend'");
}

TEST(WirePin, WorkerStatsDto) {
  PinWire(PinnedWorker(), "WorkerStatsDto",
          R"({"worker":2,"address":"127.0.0.1:9001","healthy":false,)"
          R"("draining":true,"jobs_submitted":11,"jobs_executed":12,)"
          R"("jobs_pending":13,"sessions_active":14,"rpcs":15,)"
          R"("rpc_failures":16,"reconnects":17})");
  PinRejection<api::WorkerStatsDto>(
      R"({"worker":-1,"address":"a"})", kRange,
      "WorkerStatsDto: field 'worker'=-1 outside [0, 9223372036854775807]");
}

TEST(WirePin, ClusterResponse) {
  api::ClusterResponse c;
  c.mode = "cluster";
  c.workers = {PinnedWorker()};
  PinWire(c, "ClusterResponse",
          R"({"mode":"cluster","workers":[{"worker":2,)"
          R"("address":"127.0.0.1:9001","healthy":false,"draining":true,)"
          R"("jobs_submitted":11,"jobs_executed":12,"jobs_pending":13,)"
          R"("sessions_active":14,"rpcs":15,"rpc_failures":16,)"
          R"("reconnects":17}]})");
  PinRejection<api::ClusterResponse>(
      R"({})", kInvalid, "ClusterResponse: missing required field 'mode'");
}

TEST(WirePin, StatsResponse) {
  api::StatsResponse s;
  s.jobs_submitted = 1;
  s.jobs_executed = 2;
  s.jobs_pending = 3;
  s.job_cache_hits = 4;
  s.sessions_opened = 5;
  s.sessions_active = 6;
  s.sessions_expired = 7;
  s.steps = 8;
  s.noops = 9;
  s.result_cache_hits = 10;
  s.delta_execs = 11;
  s.retruncates = 12;
  s.full_execs = 13;
  s.fallbacks = 14;
  s.backends = {{"sdss", "columnar", 3, 40, 43}};
  s.learn_store_entries = 15;
  s.learn_hits = 16;
  s.learn_misses = 17;
  s.learn_seeded = 18;
  s.learn_recorded = 19;
  s.learn_saves = 20;
  s.learn_loads = 21;
  s.cluster_workers = {PinnedWorker()};
  PinWire(s, "StatsResponse",
          R"({"jobs":{"submitted":1,"executed":2,"pending":3,"cache_hits":4},)"
          R"("sessions":{"opened":5,"active":6,"expired":7},)"
          R"("runtime":{"steps":8,"noops":9,"result_cache_hits":10,)"
          R"("delta_execs":11,"retruncates":12,"full_execs":13,"fallbacks":14},)"
          R"("backends":[{"workload":"sdss","backend":"columnar","prepares":3,)"
          R"("plan_cache_hits":40,"executions":43}],)"
          R"("learn":{"store_entries":15,"hits":16,"misses":17,"seeded":18,)"
          R"("recorded":19,"saves":20,"loads":21},)"
          R"("cluster":{"workers":[{"worker":2,"address":"127.0.0.1:9001",)"
          R"("healthy":false,"draining":true,"jobs_submitted":11,)"
          R"("jobs_executed":12,"jobs_pending":13,"sessions_active":14,)"
          R"("rpcs":15,"rpc_failures":16,"reconnects":17}]}})");
  PinRejection<api::StatsResponse>(
      R"({"learn":{"hits":"x"}})", kInvalid,
      "StatsResponse.learn: field 'hits' must be an integer");
  PinRejection<api::StatsResponse>(
      R"({"cluster":{"workers":{}}})", kInvalid,
      "StatsResponse.cluster.workers: must be an array");
}

TEST(WirePin, RpcEnvelope) {
  api::RpcEnvelope e;
  e.method = api::kMethodGetJob;
  e.request_id = 42;
  e.payload.Set("id", JsonValue::Str("j-7"));
  PinWire(e, "RpcEnvelope",
          R"({"api_version":"v1","method":"job.get","request_id":42,)"
          R"("payload":{"id":"j-7"}})");
  PinRejection<api::RpcEnvelope>(
      R"({"api_version":"v1","method":"job.get","payload":3})", kInvalid,
      "RpcEnvelope.payload must be an object");
}

TEST(WirePin, RpcReply) {
  JsonValue payload = JsonValue::Object();
  payload.Set("hit", JsonValue::Bool(true));
  api::RpcReply ok = api::RpcReply::Success(7, payload);
  ok.epoch = 99;
  PinWire(ok, "RpcReply",
          R"({"request_id":7,"ok":true,"epoch":99,"payload":{"hit":true}})");
  PinWire(api::RpcReply::Failure(8, Status::Unavailable("worker down")), "RpcReply",
          R"({"request_id":8,"ok":false,"error":{"code":"Unavailable",)"
          R"("message":"worker down","retryable":true}})");
  PinRejection<api::RpcReply>(R"({"ok":false})", kInvalid,
                              "failed RpcReply requires an error body");
}

TEST(WirePin, IdRequest) {
  PinWire(api::IdRequest{"j-7", 250}, "IdRequest",
          R"({"id":"j-7","wait_ms":250})");
  PinRejection<api::IdRequest>(
      R"({"id":"j","wait_ms":-1})", kRange,
      "IdRequest: field 'wait_ms'=-1 outside [0, 600000]");
}

TEST(WirePin, ProgressRequest) {
  PinWire(api::ProgressRequest{"j-7", 3, 250}, "ProgressRequest",
          R"({"job_id":"j-7","last_seen_version":3,"wait_ms":250})");
  PinRejection<api::ProgressRequest>(
      R"({"job_id":"j","last_seen_version":-2})", kRange,
      "ProgressRequest: field 'last_seen_version'=-2 outside [0, "
      "9223372036854775807]");
}

TEST(Dto, RpcWaitIsBoundedAtTheDeadlineCap) {
  // An unbounded wait_ms would overflow the chrono arithmetic of the
  // workers' condvar waits; the decoders cap it at api::kMaxWaitMs.
  for (const std::string wait : {"9223372036854775807", "600001", "600000"}) {
    auto id = ParseJson(R"({"id":"j","wait_ms":)" + wait + "}");
    auto progress = ParseJson(R"({"job_id":"j","wait_ms":)" + wait + "}");
    ASSERT_TRUE(id.ok() && progress.ok()) << wait;
    std::vector<Status> decoded = {api::IdRequest::FromJson(*id).status(),
                                   api::ProgressRequest::FromJson(*progress).status()};
    for (const Status& s : decoded) {
      if (wait == "600000") {
        EXPECT_TRUE(s.ok()) << s.ToString();
      } else {
        EXPECT_EQ(s.code(), kRange) << wait << ": " << s.ToString();
      }
    }
  }
}

TEST(WirePin, SessionEventRequest) {
  WidgetEventRequest multi;
  multi.kind = "set_multi";
  multi.choice_id = 2;
  multi.count = 3;
  PinWire(api::SessionEventRequest{"s-2", multi}, "SessionEventRequest",
          R"({"session_id":"s-2","event":{"kind":"set_multi","choice_id":2,)"
          R"("count":3}})");
  PinRejection<api::SessionEventRequest>(
      R"({"session_id":"s"})", kInvalid,
      "SessionEventRequest: missing required field 'event'");
}

TEST(WirePin, WorkerPingResponse) {
  PinWire(api::WorkerPingResponse{1, 2, 3, 4, true}, "WorkerPingResponse",
          R"({"jobs_submitted":1,"jobs_executed":2,"jobs_pending":3,)"
          R"("sessions_active":4,"draining":true})");
  PinRejection<api::WorkerPingResponse>(
      R"({"draining":1})", kInvalid,
      "WorkerPingResponse: field 'draining' must be a boolean");
}

TEST(WirePin, TextReply) {
  PinWire(api::TextReply{"{\"traceEvents\":[]}"}, "TextReply",
          R"({"text":"{\"traceEvents\":[]}"})");
  PinRejection<api::TextReply>(R"({"text":5})", kInvalid,
                               "TextReply: field 'text' must be a string");
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

TEST(ApiService, EventBatchesMatchInProcessRuntime) {
  // Each widget event's StepResponse carries its own diff batch; it must
  // equal, change for change (kind, row, old_row), the batch an in-process
  // runtime returns for the same step. Seeded walks on two workloads and
  // two backends.
  auto svc = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(svc.ok());
  size_t total_changes = 0;
  for (const char* workload : {"sdss", "flights"}) {
    for (BackendKind kind : {BackendKind::kReference, BackendKind::kColumnar}) {
      const std::string backend_name(BackendKindName(kind));
      SCOPED_TRACE(std::string(workload) + "/" + backend_name);
      GenerateRequest req;
      req.workload = workload;
      req.options = FastGenOptions();
      req.options.backend = backend_name;
      auto accepted = (*svc)->SubmitGenerate(req);
      ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
      ASSERT_EQ(AwaitJob(svc->get(), accepted->job_id).state, "done");

      auto bundle = LoadWorkload(workload, SmallServiceOptions().workload_rows);
      ASSERT_TRUE(bundle.ok());
      auto gen_opts = req.options.ToGeneratorOptions();
      ASSERT_TRUE(gen_opts.ok());
      auto iface = GenerateInterface(bundle->log, *gen_opts);
      ASSERT_TRUE(iface.ok());
      auto backend = MakeBackendFor(*bundle, kind);
      ASSERT_TRUE(backend.ok());
      auto runtime = InteractiveRuntime::Create(
          *iface, gen_opts->constants,
          std::shared_ptr<ExecutionBackend>(std::move(*backend)));
      ASSERT_TRUE(runtime.ok());

      SessionOpenRequest open;
      open.job_id = accepted->job_id;
      auto session = (*svc)->OpenSession(open);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
      CollectChoices(session->widgets, &choices);
      ASSERT_FALSE(choices.empty());

      Rng rng(17);
      for (int step = 0; step < 40; ++step) {
        const auto& [choice_id, option_count, widget] = rng.Choice(choices);
        WidgetEventRequest event;
        event.choice_id = choice_id;
        InteractiveRuntime::ChangeBatch in_proc_batch;
        Result<InteractiveRuntime::StepReport> in_proc_step = Status::OK();
        if (widget == "Checkbox" || widget == "Toggle") {
          event.kind = "set_opt";
          event.present = rng.Bernoulli(0.5);
          in_proc_step = (*runtime)->SetOptPresent(static_cast<int>(choice_id),
                                                   event.present, &in_proc_batch);
        } else if (option_count > 0) {
          event.kind = "set_any";
          event.option_index = rng.UniformInt(0, option_count - 1);
          in_proc_step = (*runtime)->SetAnyChoice(
              static_cast<int>(choice_id), static_cast<int>(event.option_index),
              &in_proc_batch);
        } else {
          continue;
        }
        auto api_step = (*svc)->ApplyEvent(session->session_id, event);
        ASSERT_EQ(api_step.ok(), in_proc_step.ok())
            << event.kind << " choice " << choice_id << ": api="
            << api_step.status().ToString()
            << " in-proc=" << in_proc_step.status().ToString();
        if (!api_step.ok()) continue;
        const ChangeBatchDto& api_batch = api_step->batch;
        EXPECT_EQ(api_batch.from_version,
                  static_cast<int64_t>(in_proc_batch.from_version));
        EXPECT_EQ(api_batch.to_version, static_cast<int64_t>(in_proc_batch.to_version));
        ASSERT_EQ(api_batch.changes.size(), in_proc_batch.changes.size())
            << "step " << step << ": " << event.kind << " choice " << choice_id;
        for (size_t i = 0; i < api_batch.changes.size(); ++i) {
          EXPECT_TRUE(api_batch.changes[i] ==
                      RowChangeDto::FromChange(in_proc_batch.changes[i]))
              << "step " << step << " change " << i;
        }
        total_changes += api_batch.changes.size();
      }
    }
  }
  EXPECT_GT(total_changes, 0u) << "the walks changed no rows";
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
  // Opening the session executed its first query through the store.
  EXPECT_GT(stats.backends[0].prepares, 0);
  EXPECT_GT(stats.backends[0].executions, 0);
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
  // Per backend kind: executions counted, and executions timed.
  std::map<std::string, std::pair<uint64_t, uint64_t>> base_exec;
  for (BackendKind kind : AvailableBackends()) {
    const obs::LabelSet labels = {{"backend", std::string(BackendKindName(kind))}};
    base_exec[std::string(BackendKindName(kind))] = {
        reg.CounterValue("ifgen_backend_executions_total", labels),
        reg.HistogramSnapshot("ifgen_backend_execute_duration_us", labels).count};
  }

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
  // Every full or delta execution of the session's store is counted once
  // and timed once.
  std::map<std::string, uint64_t> executions;
  uint64_t total_executions = 0;
  for (const api::BackendStatsDto& b : stats.backends) {
    executions[b.backend] += static_cast<uint64_t>(b.executions);
    total_executions += static_cast<uint64_t>(b.executions);
  }
  EXPECT_GT(total_executions, 0u);
  for (const auto& [name, base] : base_exec) {
    const obs::LabelSet labels = {{"backend", name}};
    EXPECT_EQ(executions[name],
              reg.CounterValue("ifgen_backend_executions_total", labels) - base.first)
        << name;
    EXPECT_EQ(executions[name],
              reg.HistogramSnapshot("ifgen_backend_execute_duration_us", labels).count -
                  base.second)
        << name;
  }
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

/// Opens a session on `job_id` through `svc` and, beside it, an in-process
/// runtime on `iface` over `workload`'s store, on `backend`, pricing with
/// `constants`. Replays the workload's log through both and expects the same
/// prices and tables, and a (workload, backend) store that has planned.
/// Returns the session's summed price.
double ExpectSessionAsInProcess(ApiService* svc, const std::string& job_id,
                                const GeneratedInterface& iface,
                                const std::string& workload, BackendKind backend,
                                const CostConstants& constants) {
  SessionOpenRequest open;
  open.job_id = job_id;
  auto session = svc->OpenSession(open);
  EXPECT_TRUE(session.ok()) << job_id << ": " << session.status().ToString();
  auto bundle = LoadWorkload(workload, 300);
  EXPECT_TRUE(bundle.ok());
  if (!session.ok() || !bundle.ok()) return 0.0;
  auto store = MakeBackendFor(*bundle, backend);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return 0.0;
  auto runtime = InteractiveRuntime::Create(
      iface, constants, std::shared_ptr<ExecutionBackend>(std::move(*store)));
  EXPECT_TRUE(runtime.ok());
  if (!runtime.ok()) return 0.0;
  EXPECT_TRUE(session->table == TableDto::FromTable(*(*runtime)->CurrentResult())) << job_id;
  double price = 0.0;
  for (const std::string& sql : bundle->log) {
    WidgetEventRequest event;
    event.kind = "load_query";
    event.sql = sql;
    auto api_step = svc->ApplyEvent(session->session_id, event);
    auto local_step = (*runtime)->LoadQuery(*ParseQuery(sql));
    EXPECT_EQ(api_step.ok(), local_step.ok()) << job_id << ": " << sql;
    if (!api_step.ok() || !local_step.ok()) continue;
    EXPECT_EQ(api_step->report.interaction_cost, local_step->interaction_cost) << sql;
    EXPECT_EQ(api_step->report.navigation_cost, local_step->navigation_cost) << sql;
    price += api_step->report.interaction_cost + api_step->report.navigation_cost;
  }
  auto table = svc->SessionTable(session->session_id);
  EXPECT_TRUE(table.ok() && *table == TableDto::FromTable(*(*runtime)->CurrentResult()))
      << job_id;
  auto stats = svc->Stats();
  EXPECT_TRUE(stats.ok());
  if (stats.ok()) {
    EXPECT_TRUE(std::any_of(stats->backends.begin(), stats->backends.end(),
                            [&](const api::BackendStatsDto& b) {
                              return b.workload == workload &&
                                     b.backend == BackendKindName(backend) &&
                                     b.prepares > 0;
                            }))
        << job_id << " did not run on " << workload << "/"
        << BackendKindName(backend);
  }
  EXPECT_TRUE(svc->CloseSession(session->session_id).ok());
  return price;
}

// A job's workload, backend, algorithm and cost constants live in its record
// and nowhere else: while GetJob answers the job, its status, its progress
// frames and its sessions report them; once the record is evicted, every one
// of those calls answers NotFound. Covers a job submitted straight to the
// generation service with its own constants, a cache hit, and a slow job that
// finishes after jobs submitted later.
TEST(ApiService, JobContextLivesAndDiesWithTheJobRecord) {
  ApiService::Options opts = SmallServiceOptions();
  opts.service.job_history_capacity = 2;
  auto created = ApiService::Create(opts);
  ASSERT_TRUE(created.ok());
  ApiService* svc = created->get();
  GenerationService& service = svc->generation_service();
  auto record = [&](const std::string& job_id) {
    return service.GetJob(std::strtoull(job_id.c_str() + 2, nullptr, 10));
  };
  auto expect_context = [&](const std::string& job_id, const std::string& workload,
                            BackendKind backend, const std::string& algorithm) {
    SCOPED_TRACE(job_id);
    auto info = record(job_id);
    auto status = svc->GetJob(job_id);
    auto frame = svc->GetJobProgress(job_id, 0);
    if (!info.ok() || !status.ok() || !frame.ok()) {
      ADD_FAILURE() << "the job is gone";
      return 0.0;
    }
    EXPECT_EQ(info->workload, workload);
    EXPECT_EQ(info->options.backend, backend);
    EXPECT_EQ(status->state, "done");
    EXPECT_TRUE(frame->final_frame);
    for (const api::JobResultDto* r : {&status->result, &frame->result}) {
      EXPECT_TRUE(r->value.has_value());
      if (!r->value.has_value()) continue;
      EXPECT_EQ(r->value->workload, workload);
      EXPECT_EQ(r->value->backend, BackendKindName(backend));
      EXPECT_EQ(r->value->algorithm, algorithm);
    }
    return ExpectSessionAsInProcess(svc, job_id, *info->result, workload, backend,
                                    info->options.constants);
  };
  auto expect_evicted = [&](const std::string& job_id) {
    SCOPED_TRACE(job_id);
    EXPECT_EQ(record(job_id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(svc->GetJob(job_id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(svc->GetJobProgress(job_id, 0).status().code(), StatusCode::kNotFound);
    SessionOpenRequest open;
    open.job_id = job_id;
    EXPECT_EQ(svc->OpenSession(open).status().code(), StatusCode::kNotFound);
  };

  // Slow: sdss on the reference backend under a wall-clock budget that
  // outlasts every job submitted after it.
  GenerateRequest slow;
  slow.workload = "sdss";
  slow.options = FastGenOptions();
  slow.options.backend = "reference";
  slow.options.max_iterations = 0;
  slow.options.time_budget_ms = 3000;
  auto a = svc->SubmitGenerate(slow);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  // The wire carries no cost constants, so this job goes straight to the
  // service: greedy on flights, reference backend, dearer interactions.
  GeneratorOptions dear = *FastGenOptions().ToGeneratorOptions();
  dear.algorithm = Algorithm::kGreedy;
  dear.backend = BackendKind::kReference;
  for (double* c : {&dear.constants.i_toggle, &dear.constants.i_checkbox,
                    &dear.constants.i_radio, &dear.constants.i_buttons,
                    &dear.constants.i_dropdown_base, &dear.constants.i_slider,
                    &dear.constants.i_range_slider, &dear.constants.i_textbox_base,
                    &dear.constants.i_tabs, &dear.constants.i_adder,
                    &dear.constants.nav_edge, &dear.constants.nav_tab_switch}) {
    *c *= 3.0;
  }
  auto flights = LoadWorkload("flights", 300);
  ASSERT_TRUE(flights.ok());
  auto b_id = service.SubmitJob(JobSpec{flights->log, dear}, "flights");
  ASSERT_TRUE(b_id.ok());
  const std::string b = "j-" + std::to_string(*b_id);
  ASSERT_EQ(AwaitJob(svc, b).state, "done");
  EXPECT_EQ(record(b)->options.constants.i_radio, dear.constants.i_radio);
  const double dear_price = expect_context(b, "flights", BackendKind::kReference, "greedy");
  {
    // The same replay priced with the default constants costs less.
    auto store = MakeBackendFor(*flights, BackendKind::kReference);
    ASSERT_TRUE(store.ok());
    auto runtime = InteractiveRuntime::Create(
        *record(b)->result, CostConstants(),
        std::shared_ptr<ExecutionBackend>(std::move(*store)));
    ASSERT_TRUE(runtime.ok());
    double default_price = 0.0;
    for (const std::string& sql : flights->log) {
      auto step = (*runtime)->LoadQuery(*ParseQuery(sql));
      if (step.ok()) default_price += step->total_cost();
    }
    EXPECT_GT(dear_price, default_price);
  }

  // The job the cache answers: an identical request, kDone on admission.
  GenerateRequest synthetic;
  synthetic.workload = "synthetic";
  synthetic.options = FastGenOptions();
  auto c = svc->SubmitGenerate(synthetic);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(AwaitJob(svc, c->job_id).state, "done");
  auto d = svc->SubmitGenerate(synthetic);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->state, "done");
  auto d_status = svc->GetJob(d->job_id);
  ASSERT_TRUE(d_status.ok());
  EXPECT_TRUE(d_status->cache_hit);
  expect_context(c->job_id, "synthetic", BackendKind::kColumnar, "mcts");
  expect_context(d->job_id, "synthetic", BackendKind::kColumnar, "mcts");
  // Three jobs finished into a history of two: the oldest went.
  expect_evicted(b);

  // The slow job is still running: its mid-run frames carry its context.
  auto frame = svc->GetJobProgress(a->job_id, 0, /*wait_ms=*/10000);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->final_frame) << "the slow job finished before later ones";
  if (!frame->final_frame) {
    ASSERT_TRUE(frame->result.value.has_value());
    EXPECT_EQ(frame->result.value->workload, "sdss");
    EXPECT_EQ(frame->result.value->backend, "reference");
    EXPECT_EQ(frame->result.value->algorithm, "mcts");
  }
  ASSERT_EQ(AwaitJob(svc, a->job_id).state, "done");
  // It finished last, so it outlives the earlier-finished job c.
  expect_context(a->job_id, "sdss", BackendKind::kReference, "mcts");
  expect_context(d->job_id, "synthetic", BackendKind::kColumnar, "mcts");
  expect_evicted(c->job_id);

  // Two more jobs finish and push out the slow job and the cache hit.
  for (int64_t seed : {7, 8}) {
    GenerateRequest more;
    more.workload = "flights";
    more.options = FastGenOptions();
    more.options.seed = seed;
    auto e = svc->SubmitGenerate(more);
    ASSERT_TRUE(e.ok());
    ASSERT_EQ(AwaitJob(svc, e->job_id).state, "done");
  }
  expect_evicted(a->job_id);
  expect_evicted(d->job_id);
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
  // A step and its batch are atomic per session: each successful
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
