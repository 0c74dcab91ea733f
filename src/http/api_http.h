#pragma once

#include <memory>
#include <string>

#include "api/frontend.h"
#include "http/http_server.h"

namespace ifgen {
namespace http {

/// \brief Mounts a v1 ServiceFrontend on the embedded HTTP server — the thin
/// transport adapter: routing, JSON (de)serialization via the DTO codec,
/// Status -> HTTP status mapping, and the change-feed's long-poll/SSE
/// surface. No business logic lives here. The frontend is either the
/// in-process ApiService or a ClusterRouter fanning out to worker
/// processes; the adapter cannot tell the difference.
///
/// Endpoints (see docs/api.md for the full contract):
///   GET    /v1/healthz
///   GET    /v1/catalog
///   GET    /v1/stats
///   GET    /v1/cluster                     -> ClusterResponse (topology + health)
///   GET    /v1/metrics                    -> Prometheus text exposition
///   GET    /v1/trace                      -> global span ring, Chrome trace JSON
///   POST   /v1/generate                   -> 202 GenerateAccepted (429 when full)
///   GET    /v1/jobs/{id}?wait_ms=N        -> JobStatusResponse
///   POST   /v1/jobs/{id}/cancel           -> JobStatusResponse
///   GET    /v1/jobs/{id}/progress         -> JobProgressResponse; ?version=
///          is the last seen version, ?wait_ms=N long-polls past it
///   GET    /v1/jobs/{id}/stream           -> SSE JobProgressResponse frames
///          (one per best-so-far improvement; final frame embeds the result)
///   GET    /v1/jobs/{id}/trace            -> per-job spans, Chrome trace JSON
///   POST   /v1/sessions                   -> SessionOpenResponse
///   POST   /v1/sessions/{id}/events       -> StepResponse
///   GET    /v1/sessions/{id}/feed         -> long-poll ChangeBatch, or SSE
///          (?sse=1 or Accept: text/event-stream) streaming one batch per event
///   GET    /v1/sessions/{id}/table        -> TableDto (feed resync)
///   DELETE /v1/sessions/{id}
///   GET    /                              -> static client page (when configured)
class ApiHttpFrontend {
 public:
  struct Options {
    /// SSE and long-poll feed requests each pin one worker for up to their
    /// deadline, so the pool must be sized to the expected number of
    /// concurrent streaming clients plus regular traffic — hence a larger
    /// default than HttpServer's.
    static HttpServer::Options DefaultHttpOptions() {
      HttpServer::Options o;
      o.num_threads = 16;
      return o;
    }

    HttpServer::Options http = DefaultHttpOptions();
    /// SSE streams end (client reconnects) after this long.
    int64_t sse_max_duration_ms = 30000;
    /// Optional path to a static HTML client served at "/".
    std::string client_html_path;
  };

  /// `service` is not owned and must outlive the frontend.
  explicit ApiHttpFrontend(api::ServiceFrontend* service) : service_(service) {}
  ~ApiHttpFrontend() { Stop(); }

  Status Start(Options opts);
  int port() const { return server_.port(); }
  void Stop() { server_.Stop(); }

  /// Status -> HTTP status code (the transport half of the error model).
  static int HttpStatusFor(StatusCode code);

 private:
  /// Instrumentation wrapper: in-flight gauge, per-route latency histogram,
  /// and status-code counters around RouteInner (the actual dispatch).
  HttpResponse Route(const HttpRequest& req);
  HttpResponse RouteInner(const HttpRequest& req);
  HttpResponse Feed(const HttpRequest& req, const std::string& session_id);
  /// SSE stream of a job's JobProgressResponse frames (GET /v1/jobs/{id}/stream).
  HttpResponse JobStream(const HttpRequest& req, const std::string& job_id);

  api::ServiceFrontend* service_;
  Options opts_;
  HttpServer server_;
};

}  // namespace http
}  // namespace ifgen
