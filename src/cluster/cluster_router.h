#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/frontend.h"
#include "api/rpc.h"
#include "util/status.h"

namespace ifgen {
namespace cluster {

/// \brief The cluster-routed ServiceFrontend: fans the v1 API out to worker
/// processes over the RPC envelope, interchangeable with the in-process
/// ApiService (the multi-process differential test pins the two
/// bit-identical).
///
/// Routing:
///  - generate.submit is placed by consistent hash of the canonical request
///    JSON (workload + sqls + options) on a virtual-node ring, so identical
///    requests land on the same worker's result cache and same-schema jobs
///    co-locate; unhealthy ring nodes are skipped (reroute), and a worker
///    that dies between placement and send falls through to the next node.
///  - sessions follow their job: OpenSession routes to the worker that ran
///    the job, and all later session calls follow the session map.
///  - the router keeps its own "j-<n>"/"s-<n>" id space and rewrites
///    worker-local ids in every response, so cluster ids are dense and
///    identical to what a single in-process frontend would have issued.
///
/// Failure model: per-worker bounded in-flight admission answers
/// ResourceExhausted (HTTP 429); a dead/unreachable worker answers
/// Unavailable (HTTP 503) — both retryable on the wire
/// (ErrorBody.retryable). A background health loop pings workers, marks
/// failures unhealthy, and reconnects with exponential backoff; calls
/// naming a job/session owned by a dead worker keep failing retryably
/// until the worker returns (its state lives in that process), while new
/// jobs immediately reroute around it.
class ClusterRouter : public api::ServiceFrontend {
 public:
  struct WorkerAddress {
    std::string host = "127.0.0.1";
    int port = 0;
  };

  struct Options {
    std::vector<WorkerAddress> workers;
    int64_t health_interval_ms = 500;
    int64_t reconnect_backoff_ms = 100;  ///< initial, doubles per failure
    /// RPCs in flight per worker beyond this answer ResourceExhausted.
    size_t max_inflight_per_worker = 64;
  };

  ClusterRouter() = default;
  ~ClusterRouter() override;
  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Builds the ring and starts the health loop. Does not require workers
  /// to be up yet — the health loop connects as they appear.
  Status Start(Options opts);
  void Stop();
  /// Sends worker.drain to every reachable worker (graceful SIGTERM path);
  /// unreachable workers are skipped, not errors.
  void DrainWorkers();
  /// Blocks until every reachable worker reports zero pending jobs or the
  /// deadline passes. Returns true when drained.
  bool WaitDrained(int64_t timeout_ms);

  // ---- ServiceFrontend --------------------------------------------------
  Result<api::GenerateAccepted> SubmitGenerate(
      const api::GenerateRequest& req) override;
  Result<api::JobStatusResponse> GetJob(const std::string& job_id,
                                        int64_t wait_ms = 0) override;
  Result<api::JobStatusResponse> CancelJob(const std::string& job_id) override;
  Result<api::JobProgressResponse> GetJobProgress(
      const std::string& job_id, int64_t last_seen_version,
      int64_t wait_ms = 0) override;
  Result<std::string> JobTrace(const std::string& job_id) override;
  Result<api::SessionOpenResponse> OpenSession(
      const api::SessionOpenRequest& req) override;
  Result<api::StepResponse> ApplyEvent(
      const std::string& session_id,
      const api::WidgetEventRequest& event) override;
  Result<api::ChangeBatchDto> PollSession(const std::string& session_id,
                                          int64_t wait_ms = 0) override;
  Status CloseSession(const std::string& session_id) override;
  Result<api::TableDto> SessionTable(const std::string& session_id) override;
  Result<api::CatalogResponse> Catalog() override;
  Result<api::StatsResponse> Stats() override;
  Result<api::ClusterResponse> Cluster() override;

  /// Which worker index a cluster job id routes to (tests kill exactly the
  /// owning process); NotFound for unknown ids.
  Result<size_t> WorkerIndexForJob(const std::string& job_id);

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkerState {
    size_t index = 0;
    WorkerAddress addr;
    std::mutex mu;
    std::vector<int> idle;  ///< pooled connections, LIFO
    size_t inflight = 0;
    bool healthy = true;
    bool draining = false;
    int64_t backoff_ms = 0;
    Clock::time_point next_probe{};
    api::WorkerPingResponse last_ping;  ///< most recent successful ping
    int64_t rpcs = 0;
    int64_t failures = 0;
    int64_t reconnects = 0;
  };

  struct Route {
    size_t worker = 0;
    std::string remote_id;
    /// Worker epoch when the route was created; replies carrying a
    /// different epoch mean the id's owner died (NotFound, never another
    /// incarnation's aliased id).
    int64_t epoch = 0;
  };

  enum class RouteKind { kJob, kSession };
  /// Builds an RPC payload naming the worker-local id of a route.
  using Payload = std::function<JsonValue(const std::string& remote_id)>;

  /// One request/reply over a pooled (or fresh) connection to `w`.
  /// `extra_wait_ms` extends the read deadline for long-poll methods.
  /// `probe` bypasses the unhealthy fast-fail and, on success, restores the
  /// worker to healthy. `reply_epoch` (optional out) receives the epoch the
  /// reply carried, also when the reply is an application error.
  Result<JsonValue> Rpc(WorkerState* w, const char* method, JsonValue payload,
                        int64_t extra_wait_ms = 0, bool probe = false,
                        int64_t* reply_epoch = nullptr);
  /// The one routed call for cluster ids: finds the route of `id`, sends
  /// `method` to its worker with `payload(remote_id)`, and checks the epoch
  /// of every reply that carries one, errors included. A reply from another
  /// incarnation than the route's forgets the route and answers NotFound.
  /// `used` (optional out) receives the route the call took.
  Result<JsonValue> Forward(RouteKind kind, const std::string& id,
                            const char* method, const Payload& payload,
                            int64_t wait_ms = 0, Route* used = nullptr);
  Result<Route> Find(RouteKind kind, const std::string& id);
  void Forget(RouteKind kind, const std::string& id);
  void MarkUnhealthyLocked(WorkerState* w);
  void HealthLoop();
  /// Ring walk: the first healthy worker at/after `key`. Null when no
  /// worker is healthy.
  WorkerState* PickWorker(uint64_t key);
  api::WorkerStatsDto WorkerRow(WorkerState* w);

  Options opts_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::pair<uint64_t, size_t>> ring_;  ///< sorted (hash, worker)

  std::mutex mu_;  ///< guards the id maps and counters below
  std::map<std::string, Route> jobs_;
  std::vector<std::string> job_order_;  ///< insertion order, for eviction
  std::map<std::string, Route> sessions_;
  uint64_t next_job_ = 1;
  uint64_t next_session_ = 1;

  std::atomic<int64_t> next_request_{1};
  std::atomic<bool> stopping_{false};
  std::mutex health_mu_;
  std::condition_variable health_cv_;
  std::thread health_thread_;
};

}  // namespace cluster
}  // namespace ifgen
