#pragma once

/// \file
/// \brief Shared pieces of the benchmark harness: the in-process server, the
/// HTTP client calls a user makes, the seeded workload inputs, and the
/// report every run prints.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api_service.h"
#include "api/dto.h"
#include "http/api_http.h"
#include "learn/experience.h"
#include "runtime/interactive.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// The run's result: whether every output checked out, how many operations
/// were attempted and failed, and the metrics in emission order.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one operation; a failed one also clears `correct`.
  void Count(bool ok);
  /// Human-readable note on stderr (stdout carries only the result line).
  static void Note(const std::string& line);
};

// ---------------------------------------------------------------------------
// Server.

struct ServerConfig {
  /// Rows per workload table; 0 keeps each workload's default size.
  size_t workload_rows = 0;
  size_t cache_capacity = 0;
  /// Attach an experience store to the generation service.
  bool experience = false;
};

/// An in-process ApiService mounted on the HTTP front-end at an ephemeral
/// localhost port: the same stack `serve_http` runs, without a subprocess.
class Server {
 public:
  static ifgen::Result<std::unique_ptr<Server>> Start(const ServerConfig& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }
  ifgen::api::ApiService& api() { return *api_; }
  const std::shared_ptr<ifgen::learn::ExperienceStore>& store() const { return store_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  Server() = default;
  ServerConfig cfg_;
  std::shared_ptr<ifgen::learn::ExperienceStore> store_;
  std::unique_ptr<ifgen::api::ApiService> api_;
  std::unique_ptr<ifgen::http::ApiHttpFrontend> http_;
  int port_ = 0;
};

/// One HTTP call with a JSON answer; non-2xx statuses become errors.
ifgen::Result<ifgen::JsonValue> HttpJson(int port, const std::string& method,
                                         const std::string& target,
                                         const std::string& body = "");

// ---------------------------------------------------------------------------
// Generation jobs.

/// A generation job as the client saw it.
struct JobResult {
  bool ok = false;
  std::string error;
  std::string job_id;
  double gen_ms = 0;  ///< submit -> parsed terminal GET /v1/jobs/{id}
  ifgen::api::JobStatusResponse status;
  const ifgen::api::GenerateResponse* result() const {
    return status.result.value ? &*status.result.value : nullptr;
  }
};

/// The finished job's interface, read from the in-process service.
std::shared_ptr<const ifgen::GeneratedInterface> JobInterface(Server& server,
                                                              const std::string& job_id);


// ---------------------------------------------------------------------------
// Widget events.

using Walk = std::vector<ifgen::api::WidgetEventRequest>;

/// Walks are episodes of this many events, each on a fresh session: a user
/// opens the dashboard, explores, and leaves. Restarting from the first
/// query keeps the mix of cheap (memoized) and expensive (full-table) states
/// the same from run to run instead of letting one long walk wander.
constexpr size_t kEpisodeEvents = 10;
inline bool EpisodeStart(size_t i) { return i % kEpisodeEvents == 0; }

/// One episode as a client ran it: walk events [begin, end) of walk
/// `client`, sent to one session, and the digest of the table that session
/// served when the episode ended.
struct Episode {
  size_t client = 0;
  size_t begin = 0;
  size_t end = 0;
  bool fetched = false;  ///< the final table was read and parsed
  uint64_t table_digest = 0;
};

struct EventRun {
  std::vector<double> us;         ///< per-event round trip, client by client
  std::vector<Episode> episodes;  ///< every episode, client by client
  std::vector<size_t> executed;   ///< events each client sent
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// One closed-loop client per walk: opens a session on `job_id` over HTTP
/// for each episode and sends its events until `seconds` have passed and at
/// least `min_events` were sent (or the walk ends). When an episode ends the
/// client reads the session's table, outside the event timer, and closes
/// the session.
EventRun RunEventClients(int port, const std::string& job_id,
                         const std::vector<Walk>& walks, double seconds,
                         size_t min_events);

/// Sends one walk event to a bare runtime, as ApplyEvent does.
ifgen::Result<ifgen::InteractiveRuntime::StepReport> ApplyWalkEvent(
    ifgen::InteractiveRuntime* rt, const ifgen::api::WidgetEventRequest& ev);

// ---------------------------------------------------------------------------
// Traced replays (replay.cc).

/// Replays each job's log and seed outside the service: a rollout-policy
/// walk whose every state is evaluated with the calls
/// StateEvaluator::SampleCost makes, each call under its own span, and
/// checked against SampleCost itself. Writes the rules/difftree/cost/
/// interface per-layer metrics. Stops after `budget_s`.
void ReplayGeneration(const std::vector<ifgen::api::GenerateRequest>& jobs,
                      double budget_s, SpanLog* log, Report* rep);

/// Replays `script` on `job_id`'s interface through in-process ApplyEvent,
/// through a bare InteractiveRuntime over a fresh copy of `workload`'s
/// store, as backend Prepare/Execute calls, and over HTTP. Writes the
/// runtime/engine/api/http per-layer metrics.
void ReplayEvents(Server& server, const std::string& job_id, const std::string& workload,
                  const Walk& script, SpanLog* log, Report* rep);

/// Writes `spans` as Chrome trace-event JSON.
void WriteSpans(const std::vector<Span>& spans, const std::string& path);

// ---------------------------------------------------------------------------

/// Runs one workload; returns false when it could not run at all.
bool RunWorkload(const RunOptions& opts, Report* rep);

double PeakRssMb();

}  // namespace perfbench
