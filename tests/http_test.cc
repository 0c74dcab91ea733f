// HTTP transport tests: the embedded server + REST/SSE adapter driven over
// real sockets — generate → job poll → session → events → feed, with the
// polled tables checked bit-identical against an InteractiveRuntime driven
// in-process, plus the transport error model (ErrorBody everywhere, 429
// backpressure) and concurrent sessions/pollers for TSan.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "api/api_service.h"
#include "core/interface_generator.h"
#include "http/api_http.h"
#include "http/http_client.h"
#include "http/net.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

using api::ApiService;
using api::TableDto;

constexpr const char* kHost = "127.0.0.1";

/// Server-under-test: an ApiService + HTTP frontend on an ephemeral port.
class HttpTest : public ::testing::Test {
 protected:
  void StartServer(ApiService::Options opts) {
    auto svc = ApiService::Create(opts);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    service_ = std::move(*svc);
    frontend_ = std::make_unique<http::ApiHttpFrontend>(service_.get());
    http::ApiHttpFrontend::Options fopts;
    fopts.http.port = 0;
    fopts.http.num_threads = 6;  // events + feed pollers + SSE concurrently
    ASSERT_TRUE(frontend_->Start(fopts).ok());
    port_ = frontend_->port();
    ASSERT_GT(port_, 0);
  }

  void StartServer() {
    ApiService::Options opts;
    opts.workload_rows = 300;
    opts.service.num_threads = 2;
    StartServer(opts);
  }

  void TearDown() override {
    if (frontend_ != nullptr) frontend_->Stop();
  }

  /// GET/POST returning the parsed JSON body; asserts the HTTP status.
  JsonValue Call(const std::string& method, const std::string& target,
                 const std::string& body, int expect_status) {
    auto resp = http::Fetch(kHost, port_, method, target, body);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) return JsonValue();
    EXPECT_EQ(resp->status, expect_status)
        << method << " " << target << " -> " << resp->body;
    auto parsed = ParseJson(resp->body);
    EXPECT_TRUE(parsed.ok()) << resp->body;
    return parsed.ok() ? *parsed : JsonValue();
  }

  /// Submits a deterministic flights job and waits for completion.
  std::string GenerateFlightsJob() {
    JsonValue body = JsonValue::Object();
    body.Set("workload", JsonValue::Str("flights"));
    JsonValue options = JsonValue::Object();
    options.Set("time_budget_ms", JsonValue::Int(0));
    options.Set("max_iterations", JsonValue::Int(12));
    options.Set("seed", JsonValue::Int(5));
    options.Set("screen_width", JsonValue::Int(90));
    options.Set("screen_height", JsonValue::Int(32));
    body.Set("options", std::move(options));
    JsonValue accepted = Call("POST", "/v1/generate", WriteJson(body), 202);
    const JsonValue* job_id = accepted.Find("job_id");
    EXPECT_NE(job_id, nullptr);
    if (job_id == nullptr) return "";
    JsonValue status =
        Call("GET", "/v1/jobs/" + job_id->AsString() + "?wait_ms=30000", "", 200);
    const JsonValue* state = status.Find("state");
    EXPECT_NE(state, nullptr);
    if (state != nullptr) EXPECT_EQ(state->AsString(), "done");
    return job_id->AsString();
  }

  std::unique_ptr<ApiService> service_;
  std::unique_ptr<http::ApiHttpFrontend> frontend_;
  int port_ = 0;
};

TEST_F(HttpTest, HealthzCatalogAndErrorModel) {
  StartServer();
  JsonValue health = Call("GET", "/v1/healthz", "", 200);
  ASSERT_NE(health.Find("status"), nullptr);
  EXPECT_EQ(health.Find("status")->AsString(), "ok");

  JsonValue catalog = Call("GET", "/v1/catalog", "", 200);
  ASSERT_NE(catalog.Find("workloads"), nullptr);
  EXPECT_EQ(catalog.Find("workloads")->size(), 3u);

  // Every error is a structured ErrorBody with a stable code.
  JsonValue missing = Call("GET", "/v1/nothing/here", "", 404);
  ASSERT_NE(missing.Find("code"), nullptr);
  EXPECT_EQ(missing.Find("code")->AsString(), "NotFound");

  JsonValue bad_json = Call("POST", "/v1/generate", "{not json", 400);
  ASSERT_NE(bad_json.Find("code"), nullptr);
  EXPECT_EQ(bad_json.Find("code")->AsString(), "ParseError");

  JsonValue unknown_field =
      Call("POST", "/v1/generate", R"({"workload":"flights","bogus":1})", 400);
  EXPECT_EQ(unknown_field.Find("code")->AsString(), "InvalidArgument");

  JsonValue out_of_range = Call(
      "POST", "/v1/generate",
      R"({"workload":"flights","options":{"time_budget_ms":0,"max_iterations":0}})",
      400);
  EXPECT_EQ(out_of_range.Find("code")->AsString(), "OutOfRange");

  JsonValue leaf = Call("POST", "/v1/generate",
                        R"({"workload":"flights","options":{"parallel_mode":"leaf"}})", 400);
  EXPECT_EQ(leaf.Find("code")->AsString(), "InvalidArgument");
  EXPECT_EQ(leaf.Find("message")->AsString(),
            "parallel_mode 'leaf' was removed; only 'root' is supported");

  JsonValue no_session = Call("GET", "/v1/sessions/s-999/feed", "", 404);
  EXPECT_EQ(no_session.Find("code")->AsString(), "NotFound");

  JsonValue no_job = Call("GET", "/v1/jobs/j-424242", "", 404);
  EXPECT_EQ(no_job.Find("code")->AsString(), "NotFound");

  auto stats = Call("GET", "/v1/stats", "", 200);
  ASSERT_NE(stats.Find("jobs"), nullptr);
}

TEST_F(HttpTest, CorsIsOffByDefault) {
  StartServer();
  auto resp = http::Get(kHost, port_, "/v1/healthz");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  // No opt-in -> no CORS headers: browsers must not let cross-origin pages
  // drive a localhost-bound server.
  EXPECT_EQ(resp->headers.count("access-control-allow-origin"), 0u);
}

TEST(HttpServer, CorsOptInEmitsHeaderAndAnswersPreflight) {
  http::HttpServer server;
  http::HttpServer::Options opts;
  opts.port = 0;
  opts.num_threads = 1;
  opts.cors_allow_origin = "*";
  ASSERT_TRUE(server
                  .Start(opts,
                         [](const http::HttpRequest&) {
                           http::HttpResponse r;
                           r.body = "{}";
                           return r;
                         })
                  .ok());
  auto resp = http::Get(kHost, server.port(), "/x");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  ASSERT_EQ(resp->headers.count("access-control-allow-origin"), 1u);
  EXPECT_EQ(resp->headers["access-control-allow-origin"], "*");

  auto preflight = http::Fetch(kHost, server.port(), "OPTIONS", "/x");
  ASSERT_TRUE(preflight.ok());
  EXPECT_EQ(preflight->status, 204);
  EXPECT_EQ(preflight->headers["access-control-allow-origin"], "*");
  EXPECT_EQ(preflight->headers.count("access-control-allow-methods"), 1u);
}

TEST(HttpServer, OversizedHeaderBlockAnswers431) {
  http::HttpServer server;
  http::HttpServer::Options opts;
  opts.port = 0;
  opts.num_threads = 1;
  opts.max_body_bytes = 16;  // header cap is max_body_bytes + 16 KiB
  ASSERT_TRUE(server
                  .Start(opts,
                         [](const http::HttpRequest&) {
                           http::HttpResponse r;
                           r.body = "{}";
                           return r;
                         })
                  .ok());
  // Much larger than the cap: most of it is still in flight when the server
  // rejects, so the 431 only reaches the client if the server drains before
  // closing (a bare close would RST the response away).
  std::string huge_target = "/" + std::string(200000, 'a');
  auto resp = http::Get(kHost, server.port(), huge_target);
  // The server must answer with a status, not silently reset the connection.
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 431);
}

TEST_F(HttpTest, BackpressureReturns429) {
  ApiService::Options opts;
  opts.workload_rows = 300;
  opts.service.num_threads = 1;
  opts.service.max_pending_jobs = 1;
  opts.service.cache_capacity = 0;
  StartServer(opts);

  std::string body =
      R"({"workload":"flights","options":{"time_budget_ms":0,"max_iterations":80,"seed":%SEED%}})";
  int saw_429 = 0;
  int saw_202 = 0;
  for (int i = 0; i < 6; ++i) {
    std::string b = body;
    b.replace(b.find("%SEED%"), 6, std::to_string(i));
    auto resp = http::Post(kHost, port_, "/v1/generate", b);
    ASSERT_TRUE(resp.ok());
    if (resp->status == 429) {
      ++saw_429;
      auto parsed = ParseJson(resp->body);
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(parsed->Find("code")->AsString(), "ResourceExhausted");
    } else {
      EXPECT_EQ(resp->status, 202);
      ++saw_202;
    }
  }
  EXPECT_GT(saw_202, 0);
  EXPECT_GT(saw_429, 0) << "bounded queue never pushed back";
}

/// Walks the widgets JSON for (choice, options, kind) triples.
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

JsonValue EventBody(int64_t choice_id, const std::string& kind, int64_t arg) {
  JsonValue e = JsonValue::Object();
  if (kind == "Checkbox" || kind == "Toggle") {
    e.Set("kind", JsonValue::Str("set_opt"));
    e.Set("choice_id", JsonValue::Int(choice_id));
    e.Set("present", JsonValue::Bool(arg != 0));
  } else {
    e.Set("kind", JsonValue::Str("set_any"));
    e.Set("choice_id", JsonValue::Int(choice_id));
    e.Set("option_index", JsonValue::Int(arg));
  }
  return e;
}

TEST_F(HttpTest, EndToEndDifferentialAgainstInProcessRuntime) {
  // The acceptance path over real sockets: submit flights log -> interface
  // JSON -> open session -> widget events -> polled diff batches, with the
  // polled table bit-identical to an InteractiveRuntime driven in-process.
  StartServer();
  const std::string job_id = GenerateFlightsJob();
  ASSERT_FALSE(job_id.empty());

  // In-process arm (same deterministic generation over the same store).
  auto bundle = LoadWorkload("flights", 300);
  ASSERT_TRUE(bundle.ok());
  GeneratorOptions gen_opts;
  gen_opts.screen = {90, 32};
  gen_opts.search.time_budget_ms = 0;
  gen_opts.search.max_iterations = 12;
  gen_opts.search.seed = 5;
  auto iface = GenerateInterface(bundle->log, gen_opts);
  ASSERT_TRUE(iface.ok());
  auto backend = MakeBackendFor(*bundle, gen_opts.backend);
  ASSERT_TRUE(backend.ok());
  std::shared_ptr<ExecutionBackend> shared_backend(std::move(*backend));
  auto runtime =
      InteractiveRuntime::Create(*iface, gen_opts.constants, shared_backend);
  ASSERT_TRUE(runtime.ok());

  // Open the HTTP session.
  JsonValue open = JsonValue::Object();
  open.Set("job_id", JsonValue::Str(job_id));
  JsonValue session = Call("POST", "/v1/sessions", WriteJson(open), 200);
  ASSERT_NE(session.Find("session_id"), nullptr);
  const std::string sid = session.Find("session_id")->AsString();

  // Initial table matches bit-identically across the wire.
  auto initial = TableDto::FromJson(*session.Find("table"));
  ASSERT_TRUE(initial.ok());
  {
    auto in_proc = (*runtime)->CurrentResult();
    ASSERT_TRUE(in_proc.ok());
    EXPECT_TRUE(*initial == TableDto::FromTable(*in_proc));
  }

  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(*session.Find("widgets"), &choices);
  ASSERT_FALSE(choices.empty());

  size_t applied = 0;
  std::vector<std::vector<Value>> mirror = initial->rows;
  for (const auto& [choice_id, option_count, kind] : choices) {
    std::vector<int64_t> args;
    if (kind == "Checkbox" || kind == "Toggle") {
      args = {0, 1};
    } else if (option_count > 0) {
      for (int64_t i = 0; i < std::min<int64_t>(option_count, 2); ++i) {
        args.push_back(i);
      }
    }
    for (int64_t arg : args) {
      JsonValue body = EventBody(choice_id, kind, arg);
      auto resp = http::Post(kHost, port_, "/v1/sessions/" + sid + "/events",
                             WriteJson(body));
      ASSERT_TRUE(resp.ok());
      const bool opt = kind == "Checkbox" || kind == "Toggle";
      Result<InteractiveRuntime::StepReport> in_proc_step =
          opt ? (*runtime)->SetOptPresent(static_cast<int>(choice_id), arg != 0)
              : (*runtime)->SetAnyChoice(static_cast<int>(choice_id),
                                         static_cast<int>(arg));
      ASSERT_EQ(resp->status == 200, in_proc_step.ok())
          << "arms diverged on choice " << choice_id << ": " << resp->body;
      if (resp->status != 200) continue;
      ++applied;

      auto step = ParseJson(resp->body);
      ASSERT_TRUE(step.ok());
      // Transition classification survives the wire.
      const JsonValue* report = step->Find("report");
      ASSERT_NE(report, nullptr);
      EXPECT_EQ(report->Find("transition")->AsString(),
                TransitionClassName(in_proc_step->transition));

      // Feed batch applies onto the mirror...
      JsonValue feed = Call("GET", "/v1/sessions/" + sid + "/feed", "", 200);
      auto batch = api::ChangeBatchDto::FromJson(feed);
      ASSERT_TRUE(batch.ok()) << WriteJson(feed);
      for (const api::RowChangeDto& c : batch->changes) {
        if (c.kind == "add") {
          mirror.push_back(c.row);
        } else {
          const std::vector<Value>& victim = c.kind == "update" ? c.old_row : c.row;
          auto it = std::find(mirror.begin(), mirror.end(), victim);
          ASSERT_NE(it, mirror.end());
          mirror.erase(it);
          if (c.kind == "update") mirror.push_back(c.row);
        }
      }

      // ...and both the mirror and the in-process runtime agree with the
      // served table, bit-identically, after a JSON round trip.
      JsonValue table_json = Call("GET", "/v1/sessions/" + sid + "/table", "", 200);
      auto table = TableDto::FromJson(table_json);
      ASSERT_TRUE(table.ok());
      auto in_proc_table = (*runtime)->CurrentResult();
      ASSERT_TRUE(in_proc_table.ok());
      EXPECT_TRUE(*table == TableDto::FromTable(*in_proc_table))
          << "polled table diverged from in-process runtime";
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
      EXPECT_TRUE(sorted(mirror) == sorted(table->rows))
          << "feed mirror diverged from served table";
    }
  }
  EXPECT_GT(applied, 4u);

  // Clean close.
  auto closed = Call("DELETE", "/v1/sessions/" + sid, "", 200);
  EXPECT_NE(closed.Find("closed"), nullptr);
  Call("GET", "/v1/sessions/" + sid + "/table", "", 404);
}

TEST_F(HttpTest, LongPollWaitsForEvent) {
  StartServer();
  const std::string job_id = GenerateFlightsJob();
  JsonValue open = JsonValue::Object();
  open.Set("job_id", JsonValue::Str(job_id));
  JsonValue session = Call("POST", "/v1/sessions", WriteJson(open), 200);
  const std::string sid = session.Find("session_id")->AsString();
  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(*session.Find("widgets"), &choices);
  ASSERT_FALSE(choices.empty());

  // Fire an event shortly after the poll goes out.
  std::thread later([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    for (const auto& [choice_id, option_count, kind] : choices) {
      JsonValue body =
          EventBody(choice_id, kind, kind == "Checkbox" || kind == "Toggle" ? 0 : 0);
      auto resp = http::Post(kHost, port_, "/v1/sessions/" + sid + "/events",
                             WriteJson(body));
      if (resp.ok() && resp->status == 200) break;  // one successful step
    }
  });
  JsonValue batch =
      Call("GET", "/v1/sessions/" + sid + "/feed?timeout_ms=5000", "", 200);
  later.join();
  ASSERT_NE(batch.Find("to_version"), nullptr);
  EXPECT_GT(batch.Find("to_version")->AsInt(), batch.Find("from_version")->AsInt())
      << "long poll returned without observing the event";
}

TEST_F(HttpTest, SseStreamsEventBatches) {
  StartServer();
  const std::string job_id = GenerateFlightsJob();
  JsonValue open = JsonValue::Object();
  open.Set("job_id", JsonValue::Str(job_id));
  JsonValue session = Call("POST", "/v1/sessions", WriteJson(open), 200);
  const std::string sid = session.Find("session_id")->AsString();
  std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
  CollectChoices(*session.Find("widgets"), &choices);

  http::SseClient sse;
  ASSERT_TRUE(sse.Connect(kHost, port_, "/v1/sessions/" + sid + "/feed?sse=1").ok());

  size_t fired = 0;
  for (const auto& [choice_id, option_count, kind] : choices) {
    JsonValue body =
        EventBody(choice_id, kind, kind == "Checkbox" || kind == "Toggle" ? 0 : 0);
    auto resp =
        http::Post(kHost, port_, "/v1/sessions/" + sid + "/events", WriteJson(body));
    if (resp.ok() && resp->status == 200) {
      ++fired;
      if (fired == 2) break;
    }
  }
  ASSERT_GE(fired, 1u);

  // The stream delivers each step as one ChangeBatch event.
  auto event = sse.NextEvent(/*timeout_ms=*/5000);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  auto parsed = ParseJson(*event);
  ASSERT_TRUE(parsed.ok()) << *event;
  auto batch = api::ChangeBatchDto::FromJson(*parsed);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->to_version, batch->from_version);
  sse.Close();

  // Shutdown with an SSE stream open must not hang (covered by TearDown's
  // Stop(), but make it explicit with a live stream).
  http::SseClient hanging;
  ASSERT_TRUE(
      hanging.Connect(kHost, port_, "/v1/sessions/" + sid + "/feed?sse=1").ok());
  frontend_->Stop();  // must unblock the stream loop and join workers
}

/// Pins the feed-loop fix: an idle SSE stream parks on the runtime's
/// version condvar in `kWaitSliceMs` blocks (src/http/api_http.cc) instead
/// of busy-polling.
/// Before the fix the loop slept 15 ms per iteration — an idle 2 s stream
/// burned ~130 wakeups; now it wakes ~2x/s just to notice a dead socket.
TEST_F(HttpTest, IdleSseFeedDoesNotBusyPoll) {
  StartServer();
  const std::string job_id = GenerateFlightsJob();
  JsonValue open = JsonValue::Object();
  open.Set("job_id", JsonValue::Str(job_id));
  JsonValue session = Call("POST", "/v1/sessions", WriteJson(open), 200);
  const std::string sid = session.Find("session_id")->AsString();

  const uint64_t before = obs::MetricsRegistry::Default().CounterTotal(
      "ifgen_http_feed_wakeups_total");
  http::SseClient sse;
  ASSERT_TRUE(
      sse.Connect(kHost, port_, "/v1/sessions/" + sid + "/feed?sse=1").ok());
  // No events fired: the stream is completely idle for the whole window.
  std::this_thread::sleep_for(std::chrono::seconds(2));
  sse.Close();
  const uint64_t after = obs::MetricsRegistry::Default().CounterTotal(
      "ifgen_http_feed_wakeups_total");

  const uint64_t wakeups = after - before;
  EXPECT_GE(wakeups, 1u) << "the stream loop never ran";
  EXPECT_LE(wakeups, 8u)
      << "idle feed stream woke " << wakeups
      << " times in 2 s — the loop is busy-polling again";
}

// ---------------------------------------------------- job progress + stream

/// Submits a flights job WITHOUT waiting for completion; `max_iterations`
/// sizes the run so streaming tests have a mid-run window to observe.
std::string SubmitFlightsJob(int port, int max_iterations, int seed) {
  JsonValue body = JsonValue::Object();
  body.Set("workload", JsonValue::Str("flights"));
  JsonValue options = JsonValue::Object();
  options.Set("time_budget_ms", JsonValue::Int(0));
  options.Set("max_iterations", JsonValue::Int(max_iterations));
  options.Set("seed", JsonValue::Int(seed));
  body.Set("options", std::move(options));
  auto resp = http::Post("127.0.0.1", port, "/v1/generate", WriteJson(body));
  EXPECT_TRUE(resp.ok());
  if (!resp.ok()) return "";
  EXPECT_EQ(resp->status, 202) << resp->body;
  auto parsed = ParseJson(resp->body);
  EXPECT_TRUE(parsed.ok());
  const JsonValue* job_id = parsed->Find("job_id");
  EXPECT_NE(job_id, nullptr);
  return job_id != nullptr ? job_id->AsString() : "";
}

TEST_F(HttpTest, JobProgressLongPollStrictlyIncreasingNoLostFinal) {
  StartServer();
  const std::string job_id = SubmitFlightsJob(port_, 40, 21);
  ASSERT_FALSE(job_id.empty());

  // Concurrent pollers: each must independently observe a strictly
  // increasing version sequence and must not miss the terminal frame.
  constexpr int kPollers = 3;
  std::vector<std::thread> threads;
  std::vector<std::vector<int64_t>> seen(kPollers);
  // Not vector<bool>: its bit-packing makes per-thread writes to distinct
  // indices race on the shared word.
  std::array<std::atomic<bool>, kPollers> got_final{};
  for (int t = 0; t < kPollers; ++t) {
    threads.emplace_back([&, t] {
      int64_t last_seen = 0;
      for (int polls = 0; polls < 600; ++polls) {
        auto resp = http::Get(kHost, port_,
                              "/v1/jobs/" + job_id + "/progress?version=" +
                                  std::to_string(last_seen) + "&wait_ms=2000");
        ASSERT_TRUE(resp.ok());
        ASSERT_EQ(resp->status, 200) << resp->body;
        auto parsed = ParseJson(resp->body);
        ASSERT_TRUE(parsed.ok());
        // Every frame must round-trip through the DTO codec.
        auto frame = api::JobProgressResponse::FromJson(*parsed);
        ASSERT_TRUE(frame.ok()) << resp->body;
        if (frame->version > last_seen) {
          seen[t].push_back(frame->version);
          last_seen = frame->version;
        }
        if (frame->final_frame) {
          got_final[t] = true;
          EXPECT_EQ(frame->state, "done");
          ASSERT_TRUE(frame->result.value.has_value())
              << "final frame must embed the result";
          EXPECT_EQ(frame->result.value->workload, "flights");
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kPollers; ++t) {
    SCOPED_TRACE(t);
    EXPECT_TRUE(got_final[t]) << "poller lost the terminal update";
    for (size_t i = 1; i < seen[t].size(); ++i) {
      EXPECT_GT(seen[t][i], seen[t][i - 1]) << "versions must strictly increase";
    }
  }
}

TEST_F(HttpTest, JobStreamSseToCompletion) {
  StartServer();
  const std::string job_id = SubmitFlightsJob(port_, 60, 23);
  ASSERT_FALSE(job_id.empty());

  http::SseClient sse;
  ASSERT_TRUE(sse.Connect(kHost, port_, "/v1/jobs/" + job_id + "/stream").ok());

  int64_t last_version = 0;
  double last_cost = std::numeric_limits<double>::infinity();
  int mid_run_frames = 0;
  bool final_seen = false;
  while (!final_seen) {
    auto event = sse.NextEvent(/*timeout_ms=*/30000);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    auto parsed = ParseJson(*event);
    ASSERT_TRUE(parsed.ok()) << *event;
    auto frame = api::JobProgressResponse::FromJson(*parsed);
    ASSERT_TRUE(frame.ok()) << *event;
    EXPECT_GE(frame->version, last_version) << "stream went backwards";
    if (frame->final_frame) {
      final_seen = true;
      EXPECT_EQ(frame->state, "done");
      ASSERT_TRUE(frame->result.value.has_value());
      // The final embedded result is the full interface: widgets present.
      EXPECT_TRUE(frame->result.value->widgets.is_object());
      EXPECT_GT(frame->result.value->widgets.size(), 0u);
    } else if (frame->version > last_version) {
      ++mid_run_frames;
      // Mid-run partials carry the best-so-far difftree and its cost, and
      // the stream is strictly improving.
      ASSERT_TRUE(frame->result.value.has_value());
      const JsonValue* total = frame->result.value->cost.Find("total");
      ASSERT_NE(total, nullptr);
      EXPECT_LT(total->AsDouble(), last_cost) << "partials must improve";
      last_cost = total->AsDouble();
      EXPECT_GT(frame->result.value->difftree.size(), 0u);
    }
    last_version = frame->version;
  }
  EXPECT_GE(mid_run_frames, 1)
      << "stream ended without a single mid-run improvement frame";
  sse.Close();
}

TEST_F(HttpTest, JobStreamClientDisconnectMidStreamLeavesServerHealthy) {
  StartServer();
  const std::string job_id = SubmitFlightsJob(port_, 60, 29);
  ASSERT_FALSE(job_id.empty());

  {
    http::SseClient sse;
    ASSERT_TRUE(sse.Connect(kHost, port_, "/v1/jobs/" + job_id + "/stream").ok());
    auto event = sse.NextEvent(/*timeout_ms=*/30000);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    sse.Close();  // hang up mid-stream
  }

  // The job must still run to completion and the server keep serving.
  JsonValue status =
      Call("GET", "/v1/jobs/" + job_id + "?wait_ms=30000", "", 200);
  ASSERT_NE(status.Find("state"), nullptr);
  EXPECT_EQ(status.Find("state")->AsString(), "done");
  JsonValue health = Call("GET", "/v1/healthz", "", 200);
  EXPECT_EQ(health.Find("status")->AsString(), "ok");
}

// A hostile query log (20k nested parentheses, ~40 KB) must be answered
// with a ParseError — at submit or as a failed job — and never take the
// server down.
TEST_F(HttpTest, DeeplyNestedSqlIsRejectedAndServerKeepsServing) {
  StartServer();
  const int n = 20000;
  JsonValue body = JsonValue::Object();
  body.Set("workload", JsonValue::Str("flights"));
  JsonValue sqls = JsonValue::Array();
  sqls.Append(JsonValue::Str("SELECT a FROM t WHERE " + std::string(n, '(') + "a = 1" +
                             std::string(n, ')')));
  body.Set("sqls", std::move(sqls));
  auto resp = http::Fetch(kHost, port_, "POST", "/v1/generate", WriteJson(body));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  auto parsed = ParseJson(resp->body);
  ASSERT_TRUE(parsed.ok()) << resp->body;
  if (resp->status == 400) {
    ASSERT_NE(parsed->Find("code"), nullptr);
    EXPECT_EQ(parsed->Find("code")->AsString(), "ParseError");
  } else {
    ASSERT_EQ(resp->status, 202) << resp->body;
    ASSERT_NE(parsed->Find("job_id"), nullptr);
    JsonValue status = Call(
        "GET", "/v1/jobs/" + parsed->Find("job_id")->AsString() + "?wait_ms=30000",
        "", 200);
    ASSERT_NE(status.Find("state"), nullptr);
    EXPECT_EQ(status.Find("state")->AsString(), "failed");
    ASSERT_NE(status.Find("error"), nullptr);
    EXPECT_EQ(status.Find("error")->Find("code")->AsString(), "ParseError");
  }
  JsonValue health = Call("GET", "/v1/healthz", "", 200);
  EXPECT_EQ(health.Find("status")->AsString(), "ok");
}

TEST_F(HttpTest, JobStreamForUnknownJobEmitsErrorEvent) {
  StartServer();
  http::SseClient sse;
  ASSERT_TRUE(sse.Connect(kHost, port_, "/v1/jobs/j-424242/stream").ok());
  auto event = sse.NextEvent(/*timeout_ms=*/5000);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  auto parsed = ParseJson(*event);
  ASSERT_TRUE(parsed.ok()) << *event;
  ASSERT_NE(parsed->Find("code"), nullptr);
  EXPECT_EQ(parsed->Find("code")->AsString(), "NotFound");
}

TEST_F(HttpTest, CancelRunningJobOverHttpReturnsPartialResult) {
  StartServer();
  // Big budget: the cancel must land mid-run.
  const std::string job_id = SubmitFlightsJob(port_, 5000, 31);
  ASSERT_FALSE(job_id.empty());

  // Wait until at least one improvement is published, then cancel.
  JsonValue first = Call(
      "GET", "/v1/jobs/" + job_id + "/progress?version=0&wait_ms=20000", "", 200);
  ASSERT_NE(first.Find("version"), nullptr);
  ASSERT_GE(first.Find("version")->AsInt(), 1);
  Call("POST", "/v1/jobs/" + job_id + "/cancel", "", 200);

  JsonValue status =
      Call("GET", "/v1/jobs/" + job_id + "?wait_ms=30000", "", 200);
  ASSERT_NE(status.Find("state"), nullptr);
  EXPECT_EQ(status.Find("state")->AsString(), "cancelled");
  // Both the Cancelled error and the best-so-far partial ride along.
  ASSERT_NE(status.Find("error"), nullptr);
  EXPECT_EQ(status.Find("error")->Find("code")->AsString(), "Cancelled");
  ASSERT_NE(status.Find("result"), nullptr)
      << "cancelled mid-run job must carry its best-so-far partial";
  auto result = api::GenerateResponse::FromJson(*status.Find("result"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.stop_reason, "cancelled");
}

/// The SseClient timeout is a *total* deadline: a server trickling heartbeat
/// frames forever (bytes arriving well within every per-recv window) must
/// still time the client out.
TEST(SseClientTimeout, TricklingStreamHonorsTotalDeadline) {
  http::HttpServer server;
  http::HttpServer::Options opts;
  opts.port = 0;
  opts.num_threads = 1;
  ASSERT_TRUE(server
                  .Start(opts,
                         [](const http::HttpRequest&) {
                           http::HttpResponse r;
                           r.content_type = "text/event-stream";
                           r.stream = [](http::HttpStream* stream) {
                             // Heartbeats only — never a data frame.
                             for (int i = 0; i < 200 && stream->alive(); ++i) {
                               if (!stream->Write(": heartbeat\n\n")) return;
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(20));
                             }
                           };
                           return r;
                         })
                  .ok());
  http::SseClient sse;
  ASSERT_TRUE(sse.Connect("127.0.0.1", server.port(), "/trickle").ok());
  const auto start = std::chrono::steady_clock::now();
  auto event = sse.NextEvent(/*timeout_ms=*/300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ASSERT_FALSE(event.ok()) << "heartbeat-only stream must not yield an event";
  EXPECT_EQ(event.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed, 3000)
      << "timeout must bound the whole call, not each recv";
  server.Stop();
}

/// Fetch's timeout is a total deadline too: a server that sends one byte
/// every 100 ms never lets a per-recv timeout expire, but must still time a
/// 500 ms Fetch out.
TEST(HttpClient, FetchTimeoutBoundsATricklingResponse) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  std::atomic<bool> done{false};
  std::thread trickler([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    // 30 bytes over 3 s, then EOF; never a complete response head.
    for (int i = 0; i < 30 && !done.load(); ++i) {
      if (::send(fd, "x", 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::close(fd);
  });
  const auto start = std::chrono::steady_clock::now();
  auto resp = http::Fetch(kHost, port, "GET", "/trickle", "", /*timeout_ms=*/500);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  done.store(true);
  trickler.join();
  ::close(listener);
  ASSERT_FALSE(resp.ok()) << "a trickled response head is never complete";
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted)
      << resp.status().ToString();
  EXPECT_LT(elapsed, 1500) << "timeout must bound the whole call, not each recv";
}

/// The server's read deadline bounds the whole request, not each recv: a
/// client that sends one byte of a request head every 200 ms never lets a
/// per-recv timeout expire, but must still lose the connection once the
/// 10 s read deadline (kRecvTimeoutMs) has passed.
TEST(HttpServer, TricklingRequestIsClosedWithinTheReadDeadline) {
  constexpr int64_t kReadDeadlineMs = 10000;
  http::HttpServer server;
  http::HttpServer::Options opts;
  opts.port = 0;
  opts.num_threads = 1;
  ASSERT_TRUE(server
                  .Start(opts,
                         [](const http::HttpRequest&) {
                           http::HttpResponse r;
                           r.body = "{}";
                           return r;
                         })
                  .ok());
  auto fd = net::ConnectTcp(kHost, server.port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // An endless request line: the head is never complete.
  const std::string head = "GET /" + std::string(1000, 'a');
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_ms = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  bool closed = false;
  for (size_t i = 0; i < head.size() && elapsed_ms() < kReadDeadlineMs + 2000; ++i) {
    if (::send(*fd, &head[i], 1, MSG_NOSIGNAL) != 1) {
      closed = true;
      break;
    }
    // The server closes without answering: the peer's EOF shows up here.
    pollfd p{};
    p.fd = *fd;
    p.events = POLLIN;
    if (::poll(&p, 1, 200) > 0) {
      char byte;
      if (::recv(*fd, &byte, 1, MSG_DONTWAIT) <= 0) {
        closed = true;
        break;
      }
    }
  }
  const int64_t elapsed = elapsed_ms();
  ::close(*fd);
  EXPECT_TRUE(closed) << "a trickling client held the worker for " << elapsed << " ms";
  EXPECT_LT(elapsed, kReadDeadlineMs + 2000);
  // The freed worker serves the next request.
  auto resp = http::Get(kHost, server.port(), "/x");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  server.Stop();
}

TEST_F(HttpTest, ConcurrentSessionsAndPollersOverHttp) {
  StartServer();
  const std::string job_id = GenerateFlightsJob();

  constexpr int kSessions = 3;
  std::vector<std::string> sids;
  std::vector<std::vector<std::tuple<int64_t, int64_t, std::string>>> choices(
      kSessions);
  for (int i = 0; i < kSessions; ++i) {
    JsonValue open = JsonValue::Object();
    open.Set("job_id", JsonValue::Str(job_id));
    JsonValue session = Call("POST", "/v1/sessions", WriteJson(open), 200);
    ASSERT_NE(session.Find("session_id"), nullptr);
    sids.push_back(session.Find("session_id")->AsString());
    CollectChoices(*session.Find("widgets"), &choices[i]);
    ASSERT_FALSE(choices[i].empty());
  }

  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(7 + i);
      for (int step = 0; step < 15; ++step) {
        const auto& [choice_id, option_count, kind] =
            choices[i][rng.UniformIndex(choices[i].size())];
        int64_t arg = kind == "Checkbox" || kind == "Toggle"
                          ? rng.UniformInt(0, 1)
                          : (option_count > 0 ? rng.UniformInt(0, option_count - 1)
                                              : 0);
        (void)http::Post(kHost, port_, "/v1/sessions/" + sids[i] + "/events",
                         WriteJson(EventBody(choice_id, kind, arg)));
      }
    });
    threads.emplace_back([&, i] {
      for (int polls = 0; polls < 10; ++polls) {
        (void)http::Get(kHost, port_,
                        "/v1/sessions/" + sids[i] + "/feed?timeout_ms=50");
        (void)http::Get(kHost, port_, "/v1/stats");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& sid : sids) {
    Call("DELETE", "/v1/sessions/" + sid, "", 200);
  }
}

}  // namespace
}  // namespace ifgen
