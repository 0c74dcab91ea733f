#include "http/api_http.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "api/rpc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ifgen {
namespace http {

namespace {

using api::ErrorBody;

/// Long-poll cap: ?timeout_ms and ?wait_ms are clamped to this. A cluster
/// router forwards the wait to its workers, which reject waits above
/// api::kMaxWaitMs.
constexpr int64_t kMaxPollMs = 30000;
static_assert(kMaxPollMs <= api::kMaxWaitMs, "workers would reject the wait");

/// Per-iteration condvar wait of a streaming loop (session feed SSE and
/// long-poll, job /stream SSE): an idle stream wakes a couple of times per
/// second, to notice a dead client socket and its deadline, instead of
/// busy-polling.
constexpr int64_t kWaitSliceMs = 500;

obs::Gauge& HttpInFlightMetric() {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "ifgen_http_requests_in_flight", "HTTP requests currently being handled");
  return *g;
}
obs::HistogramFamily& HttpDurationFamily() {
  // 64us..~8.6s in x2 steps; streaming responses are measured to handler
  // return (the stream body runs on after the handler hands back a functor).
  static obs::HistogramFamily* f = [] {
    obs::HistogramOptions opts;
    opts.first_bound = 64.0;
    opts.growth = 2.0;
    opts.num_buckets = 18;
    return obs::MetricsRegistry::Default().GetHistogramFamily(
        "ifgen_http_request_duration_us",
        "HTTP request handling latency by normalized route (microseconds)", opts);
  }();
  return *f;
}
obs::CounterFamily& HttpResponsesFamily() {
  static obs::CounterFamily* f = obs::MetricsRegistry::Default().GetCounterFamily(
      "ifgen_http_responses_total",
      "HTTP responses by normalized route, method, and status code");
  return *f;
}
obs::Counter& FeedWakeupsMetric() {
  // One increment per feed-loop iteration (SSE and long-poll). An idle
  // stream should wake ~1000/kWaitSliceMs times per second, not
  // hundreds — the busy-poll regression guard in tests/http_test.cc.
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_http_feed_wakeups_total",
      "Session feed poll-loop iterations (SSE + long-poll)");
  return *c;
}

/// Collapses a request path onto its route pattern so ids don't explode the
/// label space: /v1/jobs/j-17 -> "/v1/jobs/{id}".
std::string RouteLabel(const std::vector<std::string>& seg) {
  if (seg.empty()) return "/";
  if (seg[0] != "v1") return "other";
  if (seg.size() == 2) return "/v1/" + seg[1];
  if (seg.size() >= 3 && (seg[1] == "jobs" || seg[1] == "sessions")) {
    std::string label = "/v1/" + seg[1] + "/{id}";
    if (seg.size() == 4) label += "/" + seg[3];
    if (seg.size() <= 4) return label;
  }
  return "other";
}

HttpResponse JsonResponse(int status, const JsonValue& v) {
  HttpResponse resp;
  resp.status = status;
  resp.body = WriteJson(v);
  return resp;
}

HttpResponse ErrorResponse(const Status& s) {
  return JsonResponse(ApiHttpFrontend::HttpStatusFor(s.code()),
                      ErrorBody::FromStatus(s).ToJson());
}

/// Decodes a request body through ParseJson + the DTO codec; any failure
/// becomes a structured 400/ParseError body.
template <typename T>
Result<T> DecodeBody(const HttpRequest& req) {
  IFGEN_ASSIGN_OR_RETURN(JsonValue v, ParseJson(req.body));
  return T::FromJson(v);
}

/// Splits "/v1/sessions/s-1/events" into segments.
std::vector<std::string> PathSegments(const std::string& path) {
  std::vector<std::string> out;
  for (const std::string& seg : Split(path, '/')) {
    if (!seg.empty()) out.push_back(seg);
  }
  return out;
}

bool WantsSse(const HttpRequest& req) {
  if (req.QueryParam("sse") == "1") return true;
  auto it = req.headers.find("accept");
  return it != req.headers.end() &&
         it->second.find("text/event-stream") != std::string::npos;
}

}  // namespace

int ApiHttpFrontend::HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kCancelled:
      return 409;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

Status ApiHttpFrontend::Start(Options opts) {
  opts_ = std::move(opts);
  return server_.Start(opts_.http,
                       [this](const HttpRequest& req) { return Route(req); });
}

HttpResponse ApiHttpFrontend::Feed(const HttpRequest& req,
                                   const std::string& session_id) {
  if (WantsSse(req)) {
    HttpResponse resp;
    resp.content_type = "text/event-stream";
    resp.stream = [this, session_id](HttpStream* stream) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(opts_.sse_max_duration_ms);
      if (!stream->Write(": connected\n\n")) return;
      while (stream->alive() && std::chrono::steady_clock::now() < deadline) {
        // Blocks on the session's version condvar for up to one slice (no
        // busy-polling): an idle stream wakes ~2x/s to check the socket and
        // deadline, a step wakes it immediately.
        FeedWakeupsMetric().Inc();
        auto batch =
            service_->PollSession(session_id, kWaitSliceMs);
        if (!batch.ok()) {
          // Session gone (closed/expired): surface the error as a terminal
          // event so EventSource clients can stop reconnecting.
          stream->Write("event: error\ndata: " +
                        WriteJson(ErrorBody::FromStatus(batch.status()).ToJson()) +
                        "\n\n");
          return;
        }
        if (batch->to_version > batch->from_version) {
          if (!stream->Write("data: " + WriteJson(batch->ToJson()) + "\n\n")) {
            return;
          }
        }
      }
    };
    return resp;
  }

  // Long poll: return immediately with whatever is pending when
  // timeout_ms is absent/0, otherwise wait — in condvar slices, so a dead
  // server Stop() is noticed within one slice — for the first new version.
  const int64_t timeout_ms =
      std::min<int64_t>(std::max<int64_t>(0, req.QueryInt("timeout_ms", 0)),
                        kMaxPollMs);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    const int64_t left = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - std::chrono::steady_clock::now())
                             .count();
    FeedWakeupsMetric().Inc();
    auto batch = service_->PollSession(
        session_id,
        std::max<int64_t>(0, std::min(left, kWaitSliceMs)));
    if (!batch.ok()) return ErrorResponse(batch.status());
    if (batch->to_version > batch->from_version ||
        std::chrono::steady_clock::now() >= deadline || server_.stopping()) {
      return JsonResponse(200, batch->ToJson());
    }
  }
}

HttpResponse ApiHttpFrontend::JobStream(const HttpRequest& req,
                                        const std::string& job_id) {
  // Resume support: EventSource reconnects carry the last seen version in
  // ?version= so a dropped stream replays nothing the client already has.
  const int64_t start_version = std::max<int64_t>(0, req.QueryInt("version", 0));
  HttpResponse resp;
  resp.content_type = "text/event-stream";
  resp.stream = [this, job_id, start_version](HttpStream* stream) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.sse_max_duration_ms);
    if (!stream->Write(": connected\n\n")) return;
    int64_t last_seen = start_version;
    while (stream->alive() && std::chrono::steady_clock::now() < deadline) {
      // The wait blocks on the job's progress condvar (no busy-poll); kept
      // short so a dead client socket is noticed within a wait interval.
      auto progress = service_->GetJobProgress(job_id, last_seen, kWaitSliceMs);
      if (!progress.ok()) {
        // Unknown/evicted job: terminal event so EventSource clients can
        // stop reconnecting.
        stream->Write(
            "event: error\ndata: " +
            WriteJson(ErrorBody::FromStatus(progress.status()).ToJson()) +
            "\n\n");
        return;
      }
      if (progress->version > last_seen || progress->final_frame) {
        last_seen = progress->version;
        if (!stream->Write("data: " + WriteJson(progress->ToJson()) + "\n\n")) {
          return;
        }
        if (progress->final_frame) return;
      }
    }
  };
  return resp;
}

HttpResponse ApiHttpFrontend::Route(const HttpRequest& req) {
  obs::TraceSpan span("http.request", "http");
  // RAII so the gauge also drops when a handler throws (the server maps the
  // exception to a 500 response).
  struct InFlightGuard {
    InFlightGuard() { HttpInFlightMetric().Add(1.0); }
    ~InFlightGuard() { HttpInFlightMetric().Sub(1.0); }
  } in_flight;
  Stopwatch watch;
  HttpResponse resp = RouteInner(req);
  if (obs::MetricsEnabled()) {
    const std::string route = RouteLabel(PathSegments(req.path));
    HttpDurationFamily()
        .WithLabels({{"route", route}})
        ->Observe(static_cast<double>(watch.ElapsedMicros()));
    HttpResponsesFamily()
        .WithLabels({{"code", std::to_string(resp.status)},
                     {"method", req.method},
                     {"route", route}})
        ->Inc();
  }
  return resp;
}

HttpResponse ApiHttpFrontend::RouteInner(const HttpRequest& req) {
  const std::vector<std::string> seg = PathSegments(req.path);

  // GET / — the static client, when configured.
  if (seg.empty()) {
    if (req.method != "GET") {
      ErrorBody e{"InvalidArgument", "method not allowed on /"};
      return JsonResponse(405, e.ToJson());
    }
    HttpResponse resp;
    if (!opts_.client_html_path.empty()) {
      if (FILE* f = std::fopen(opts_.client_html_path.c_str(), "rb")) {
        char chunk[8192];
        size_t n = 0;
        while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
          resp.body.append(chunk, n);
        }
        std::fclose(f);
        resp.content_type = "text/html; charset=utf-8";
        return resp;
      }
      IFGEN_LOG_C(Warning, "http")
          << "cannot open client_html_path '" << opts_.client_html_path
          << "': " << std::strerror(errno) << "; serving built-in page";
    }
    resp.content_type = "text/html; charset=utf-8";
    resp.body =
        "<!doctype html><title>ifgen</title><p>ifgen API server. "
        "See <code>/v1/healthz</code>, <code>/v1/catalog</code>; API docs in "
        "docs/api.md.</p>";
    return resp;
  }

  if (seg[0] != "v1") {
    return ErrorResponse(Status::NotFound("unknown path '" + req.path +
                                          "' (API lives under /v1)"));
  }

  // /v1/... dispatch. Every arm returns a DTO or an ErrorBody; Status codes
  // map via HttpStatusFor.
  if (seg.size() == 2 && seg[1] == "healthz" && req.method == "GET") {
    JsonValue v = JsonValue::Object();
    v.Set("status", JsonValue::Str("ok"));
    return JsonResponse(200, v);
  }
  if (seg.size() == 2 && seg[1] == "catalog" && req.method == "GET") {
    auto catalog = service_->Catalog();
    if (!catalog.ok()) return ErrorResponse(catalog.status());
    return JsonResponse(200, catalog->ToJson());
  }
  if (seg.size() == 2 && seg[1] == "stats" && req.method == "GET") {
    auto stats = service_->Stats();
    if (!stats.ok()) return ErrorResponse(stats.status());
    return JsonResponse(200, stats->ToJson());
  }
  if (seg.size() == 2 && seg[1] == "cluster" && req.method == "GET") {
    auto cluster = service_->Cluster();
    if (!cluster.ok()) return ErrorResponse(cluster.status());
    return JsonResponse(200, cluster->ToJson());
  }
  if (seg.size() == 2 && seg[1] == "metrics" && req.method == "GET") {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::MetricsRegistry::Default().PrometheusText();
    return resp;
  }
  if (seg.size() == 2 && seg[1] == "trace" && req.method == "GET") {
    // The process-global span ring (most recent ~16k spans while tracing is
    // enabled) as Chrome trace-event JSON.
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = obs::TraceRecorder::Global().ToChromeTraceJson();
    return resp;
  }

  if (seg.size() == 2 && seg[1] == "generate" && req.method == "POST") {
    auto parsed = DecodeBody<api::GenerateRequest>(req);
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    auto accepted = service_->SubmitGenerate(*parsed);
    if (!accepted.ok()) return ErrorResponse(accepted.status());
    return JsonResponse(202, accepted->ToJson());
  }

  if (seg.size() >= 3 && seg[1] == "jobs") {
    const std::string& job_id = seg[2];
    if (seg.size() == 3 && req.method == "GET") {
      // Clamp like the feed path: an unbounded client-supplied wait would
      // pin an HTTP worker (and overflow chrono at extreme values).
      const int64_t wait_ms =
          std::min<int64_t>(std::max<int64_t>(0, req.QueryInt("wait_ms", 0)),
                            kMaxPollMs);
      auto status = service_->GetJob(job_id, wait_ms);
      if (!status.ok()) return ErrorResponse(status.status());
      return JsonResponse(200, status->ToJson());
    }
    if (seg.size() == 4 && seg[3] == "cancel" && req.method == "POST") {
      auto status = service_->CancelJob(job_id);
      if (!status.ok()) return ErrorResponse(status.status());
      return JsonResponse(200, status->ToJson());
    }
    if (seg.size() == 4 && seg[3] == "progress" && req.method == "GET") {
      // Versioned best-so-far snapshot; ?version= is the last seen version
      // and ?wait_ms= long-polls until it is exceeded (clamped like GetJob).
      const int64_t wait_ms =
          std::min<int64_t>(std::max<int64_t>(0, req.QueryInt("wait_ms", 0)),
                            kMaxPollMs);
      const int64_t version = std::max<int64_t>(0, req.QueryInt("version", 0));
      auto progress = service_->GetJobProgress(job_id, version, wait_ms);
      if (!progress.ok()) return ErrorResponse(progress.status());
      return JsonResponse(200, progress->ToJson());
    }
    if (seg.size() == 4 && seg[3] == "stream" && req.method == "GET") {
      return JobStream(req, job_id);
    }
    if (seg.size() == 4 && seg[3] == "trace" && req.method == "GET") {
      auto trace = service_->JobTrace(job_id);
      if (!trace.ok()) return ErrorResponse(trace.status());
      HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = std::move(*trace);
      return resp;
    }
  }

  if (seg.size() >= 2 && seg[1] == "sessions") {
    if (seg.size() == 2 && req.method == "POST") {
      auto parsed = DecodeBody<api::SessionOpenRequest>(req);
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      auto opened = service_->OpenSession(*parsed);
      if (!opened.ok()) return ErrorResponse(opened.status());
      return JsonResponse(200, opened->ToJson());
    }
    if (seg.size() >= 3) {
      const std::string& session_id = seg[2];
      if (seg.size() == 3 && req.method == "DELETE") {
        Status st = service_->CloseSession(session_id);
        if (!st.ok()) return ErrorResponse(st);
        JsonValue v = JsonValue::Object();
        v.Set("closed", JsonValue::Bool(true));
        return JsonResponse(200, v);
      }
      if (seg.size() == 4 && seg[3] == "events" && req.method == "POST") {
        auto parsed = DecodeBody<api::WidgetEventRequest>(req);
        if (!parsed.ok()) return ErrorResponse(parsed.status());
        auto step = service_->ApplyEvent(session_id, *parsed);
        if (!step.ok()) return ErrorResponse(step.status());
        return JsonResponse(200, step->ToJson());
      }
      if (seg.size() == 4 && seg[3] == "feed" && req.method == "GET") {
        return Feed(req, session_id);
      }
      if (seg.size() == 4 && seg[3] == "table" && req.method == "GET") {
        auto table = service_->SessionTable(session_id);
        if (!table.ok()) return ErrorResponse(table.status());
        return JsonResponse(200, table->ToJson());
      }
    }
  }

  return ErrorResponse(Status::NotFound("no route for " + req.method + " " +
                                        req.path));
}

}  // namespace http
}  // namespace ifgen
