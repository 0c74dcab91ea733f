#include "cluster/cluster_router.h"

#include <unistd.h>

#include <algorithm>

#include "cluster/frame.h"
#include "http/net.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ifgen {
namespace cluster {

using api::RpcEnvelope;
using api::RpcReply;

namespace {

// Fixed router constants; docs/cluster.md gives the reason for each value.
constexpr size_t kVirtualNodes = 16;         ///< ring points per worker
constexpr size_t kMaxPooledConnections = 8;  ///< idle connections per worker
constexpr size_t kMaxJobRoutes = 4096;       ///< terminal routes kept
constexpr int64_t kConnectTimeoutMs = 2000;  ///< also bounds each send
/// Base RPC read deadline; long-poll calls extend it by their wait_ms.
constexpr int64_t kRpcTimeoutMs = 20000;
constexpr int64_t kReconnectBackoffMaxMs = 2000;  ///< probe backoff cap

obs::CounterFamily& RpcsFamily() {
  static obs::CounterFamily* f = obs::MetricsRegistry::Default().GetCounterFamily(
      "ifgen_cluster_rpcs_total", "Cluster RPCs sent, by worker and method");
  return *f;
}
obs::CounterFamily& RpcFailuresFamily() {
  static obs::CounterFamily* f = obs::MetricsRegistry::Default().GetCounterFamily(
      "ifgen_cluster_rpc_failures_total",
      "Cluster RPC transport failures (mark the worker unhealthy), by worker");
  return *f;
}
obs::HistogramFamily& RpcDurationFamily() {
  static obs::HistogramFamily* f = [] {
    obs::HistogramOptions opts;
    opts.first_bound = 64.0;
    opts.growth = 2.0;
    opts.num_buckets = 20;
    return obs::MetricsRegistry::Default().GetHistogramFamily(
        "ifgen_cluster_rpc_duration_us",
        "Cluster RPC round-trip latency by worker (microseconds)", opts);
  }();
  return *f;
}
obs::GaugeFamily& WorkerHealthyFamily() {
  static obs::GaugeFamily* f = obs::MetricsRegistry::Default().GetGaugeFamily(
      "ifgen_cluster_worker_healthy",
      "1 when the router believes the worker is reachable, else 0");
  return *f;
}

std::string AddressOf(const ClusterRouter::WorkerAddress& a) {
  return a.host + ":" + std::to_string(a.port);
}

const char* NounOf(bool job) { return job ? "job" : "session"; }

/// The payload of the methods that name their target in an IdRequest.
std::function<JsonValue(const std::string&)> IdPayload(int64_t wait_ms = 0) {
  return [wait_ms](const std::string& remote_id) {
    return api::IdRequest{remote_id, wait_ms}.ToJson();
  };
}

/// Decodes a job status or progress reply and rewrites the worker-local job
/// id to the cluster's.
template <typename Response>
Result<Response> DecodeForJob(const std::string& job_id,
                              const JsonValue& payload) {
  IFGEN_ASSIGN_OR_RETURN(Response resp, Response::FromJson(payload));
  resp.job_id = job_id;
  if (resp.result.value.has_value()) resp.result.value->job_id = job_id;
  return resp;
}

}  // namespace

ClusterRouter::~ClusterRouter() { Stop(); }

Status ClusterRouter::Start(Options opts) {
  if (opts.workers.empty()) {
    return Status::Invalid("ClusterRouter needs at least one worker address");
  }
  opts_ = std::move(opts);
  for (size_t i = 0; i < opts_.workers.size(); ++i) {
    auto w = std::make_unique<WorkerState>();
    w->index = i;
    w->addr = opts_.workers[i];
    w->backoff_ms = opts_.reconnect_backoff_ms;
    workers_.push_back(std::move(w));
    WorkerHealthyFamily().WithLabels({{"worker", std::to_string(i)}})->Set(1.0);
  }
  // The ring: kVirtualNodes hash points per worker, keyed by worker index
  // (stable across restarts with the same worker list).
  for (size_t i = 0; i < workers_.size(); ++i) {
    for (size_t v = 0; v < kVirtualNodes; ++v) {
      const std::string key =
          "worker-" + std::to_string(i) + "-vnode-" + std::to_string(v);
      ring_.emplace_back(HashBytes(key), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  stopping_.store(false, std::memory_order_relaxed);
  health_thread_ = std::thread([this] { HealthLoop(); });
  return Status::OK();
}

void ClusterRouter::Stop() {
  if (workers_.empty()) return;
  stopping_.store(true, std::memory_order_relaxed);
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    for (int fd : w->idle) ::close(fd);
    w->idle.clear();
  }
}

void ClusterRouter::MarkUnhealthyLocked(WorkerState* w) {
  if (w->healthy) {
    IFGEN_LOG_C(Warning, "cluster")
        << "worker " << w->index << " (" << AddressOf(w->addr)
        << ") marked unhealthy";
    WorkerHealthyFamily()
        .WithLabels({{"worker", std::to_string(w->index)}})
        ->Set(0.0);
  }
  w->healthy = false;
  ++w->failures;
  for (int fd : w->idle) ::close(fd);
  w->idle.clear();
  if (w->backoff_ms <= 0) w->backoff_ms = opts_.reconnect_backoff_ms;
  w->next_probe = Clock::now() + std::chrono::milliseconds(w->backoff_ms);
  w->backoff_ms = std::min(w->backoff_ms * 2, kReconnectBackoffMaxMs);
}

Result<JsonValue> ClusterRouter::Rpc(WorkerState* w, const char* method,
                                     JsonValue payload, int64_t extra_wait_ms,
                                     bool probe, int64_t* reply_epoch) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    if (!probe && !w->healthy) {
      return Status::Unavailable("worker " + AddressOf(w->addr) +
                                 " is unreachable; retry shortly");
    }
    if (!probe && w->inflight >= opts_.max_inflight_per_worker) {
      return Status::ResourceExhausted(
          "worker " + AddressOf(w->addr) + " has " +
          std::to_string(w->inflight) + " RPCs in flight; retry later");
    }
    if (!w->idle.empty()) {
      fd = w->idle.back();
      w->idle.pop_back();
    }
    ++w->inflight;
    ++w->rpcs;
  }
  RpcsFamily()
      .WithLabels({{"worker", std::to_string(w->index)}, {"method", method}})
      ->Inc();
  Stopwatch watch;
  auto fail = [&](Status s) -> Status {
    if (fd >= 0) ::close(fd);
    RpcFailuresFamily()
        .WithLabels({{"worker", std::to_string(w->index)}})
        ->Inc();
    std::lock_guard<std::mutex> lock(w->mu);
    --w->inflight;
    MarkUnhealthyLocked(w);
    return s;
  };
  if (fd < 0) {
    auto conn = net::ConnectTcp(w->addr.host, w->addr.port, kConnectTimeoutMs);
    if (!conn.ok()) return fail(conn.status());
    fd = *conn;
  }
  RpcEnvelope env;
  env.method = method;
  env.request_id = next_request_.fetch_add(1, std::memory_order_relaxed);
  env.payload = std::move(payload);
  IFGEN_RETURN_NOT_OK(([&]() -> Status {
    Status s = WriteFrame(fd, WriteJson(env.ToJson()));
    return s.ok() ? s : fail(std::move(s));
  })());
  auto frame = ReadFrame(fd, kRpcTimeoutMs + extra_wait_ms);
  if (!frame.ok()) return fail(frame.status());
  auto parsed = ParseJson(*frame);
  if (!parsed.ok()) return fail(parsed.status());
  auto reply = RpcReply::FromJson(*parsed);
  if (!reply.ok()) return fail(reply.status());
  if (reply->request_id != env.request_id) {
    // A desynchronized stream (e.g. a stale frame left by a peer that timed
    // out mid-exchange) is a transport fault, not an application answer:
    // drop the connection and report retryable, exactly like a read failure.
    return fail(Status::Unavailable("RPC reply pairing broken: sent id " +
                                    std::to_string(env.request_id) + ", got " +
                                    std::to_string(reply->request_id)));
  }
  if (reply_epoch != nullptr) *reply_epoch = reply->epoch;
  RpcDurationFamily()
      .WithLabels({{"worker", std::to_string(w->index)}})
      ->Observe(static_cast<double>(watch.ElapsedMicros()));
  {
    std::lock_guard<std::mutex> lock(w->mu);
    --w->inflight;
    if (!w->healthy) {
      w->healthy = true;
      ++w->reconnects;
      w->backoff_ms = opts_.reconnect_backoff_ms;
      IFGEN_LOG_C(Info, "cluster")
          << "worker " << w->index << " (" << AddressOf(w->addr)
          << ") recovered";
      WorkerHealthyFamily()
          .WithLabels({{"worker", std::to_string(w->index)}})
          ->Set(1.0);
    }
    if (w->idle.size() < kMaxPooledConnections) {
      w->idle.push_back(fd);
    } else {
      ::close(fd);
    }
  }
  // Application-level failure: the worker is fine, the call is not.
  if (!reply->ok) return reply->error.ToStatus();
  return std::move(reply->payload);
}

void ClusterRouter::HealthLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(health_mu_);
      health_cv_.wait_for(
          lock, std::chrono::milliseconds(opts_.health_interval_ms),
          [this] { return stopping_.load(std::memory_order_relaxed); });
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    for (auto& w : workers_) {
      bool healthy;
      Clock::time_point next_probe;
      {
        std::lock_guard<std::mutex> lock(w->mu);
        healthy = w->healthy;
        next_probe = w->next_probe;
      }
      // Unhealthy workers are probed on their backoff schedule, healthy
      // ones every interval (the ping doubles as the stats refresh).
      if (!healthy && Clock::now() < next_probe) continue;
      auto ping =
          Rpc(w.get(), api::kMethodPing, JsonValue::Object(), 0, /*probe=*/true);
      if (!ping.ok()) continue;
      auto parsed = api::WorkerPingResponse::FromJson(*ping);
      if (parsed.ok()) {
        std::lock_guard<std::mutex> lock(w->mu);
        w->last_ping = *parsed;
        w->draining = parsed->draining;
      }
    }
  }
}

ClusterRouter::WorkerState* ClusterRouter::PickWorker(uint64_t key) {
  if (ring_.empty()) return nullptr;
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(key, size_t{0}));
  for (size_t n = 0; n < ring_.size(); ++n, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    WorkerState* w = workers_[it->second].get();
    std::lock_guard<std::mutex> lock(w->mu);
    if (w->healthy) return w;
  }
  return nullptr;
}

Result<ClusterRouter::Route> ClusterRouter::Find(RouteKind kind,
                                                 const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::map<std::string, Route>& routes =
      kind == RouteKind::kJob ? jobs_ : sessions_;
  auto it = routes.find(id);
  if (it == routes.end()) {
    return Status::NotFound(std::string("unknown ") +
                            NounOf(kind == RouteKind::kJob) + " id '" + id + "'");
  }
  return it->second;
}

void ClusterRouter::Forget(RouteKind kind, const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kind == RouteKind::kSession) {
    sessions_.erase(id);
    return;
  }
  jobs_.erase(id);
  auto it = std::find(job_order_.begin(), job_order_.end(), id);
  if (it != job_order_.end()) job_order_.erase(it);
}

// The epoch guard: a worker restart resets its dense "job-N"/"sess-N" id
// space, so a route recorded against the old incarnation could name a NEW
// job/session that happens to reuse the number. The reply's epoch exposes
// that: when it differs from the epoch the route was created under, the
// reply — a payload or an error — belongs to a stranger. Discard it, forget
// the route and answer NotFound. A zero on either side means "epoch unknown"
// (a pre-epoch worker, or a transport failure with no reply) and skips the
// check.
Result<JsonValue> ClusterRouter::Forward(RouteKind kind, const std::string& id,
                                         const char* method,
                                         const Payload& payload,
                                         int64_t wait_ms, Route* used) {
  IFGEN_ASSIGN_OR_RETURN(Route route, Find(kind, id));
  int64_t reply_epoch = 0;
  Result<JsonValue> reply =
      Rpc(workers_[route.worker].get(), method, payload(route.remote_id),
          /*extra_wait_ms=*/wait_ms, /*probe=*/false, &reply_epoch);
  if (route.epoch != 0 && reply_epoch != 0 && route.epoch != reply_epoch) {
    Forget(kind, id);
    const bool job = kind == RouteKind::kJob;
    return Status::NotFound(std::string(NounOf(job)) + " '" + id +
                            "' was owned by a worker that restarted; its state "
                            "is gone — " + (job ? "resubmit" : "reopen"));
  }
  if (used != nullptr) *used = route;
  return reply;
}

Result<api::GenerateAccepted> ClusterRouter::SubmitGenerate(
    const api::GenerateRequest& req) {
  // Consistent hash of the canonical request JSON: identical requests land
  // on the same worker's result cache, same-schema jobs co-locate.
  const JsonValue req_json = req.ToJson();
  const uint64_t key = HashBytes(WriteJson(req_json));
  Status last = Status::Unavailable("no healthy workers");
  for (size_t attempt = 0; attempt < workers_.size(); ++attempt) {
    WorkerState* w = PickWorker(key);
    if (w == nullptr) break;
    int64_t reply_epoch = 0;
    auto r = Rpc(w, api::kMethodSubmitGenerate, req_json, /*extra_wait_ms=*/0,
                 /*probe=*/false, &reply_epoch);
    if (!r.ok()) {
      // Transport loss reroutes (the worker is now unhealthy and the next
      // pick walks past it); application errors — including 429
      // backpressure and draining — are authoritative for this request.
      if (r.status().code() == StatusCode::kUnavailable) {
        last = r.status();
        continue;
      }
      return r.status();
    }
    IFGEN_ASSIGN_OR_RETURN(api::GenerateAccepted acc,
                           api::GenerateAccepted::FromJson(*r));
    std::string cluster_id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cluster_id = "j-" + std::to_string(next_job_++);
      jobs_[cluster_id] = Route{w->index, acc.job_id, reply_epoch};
      job_order_.push_back(cluster_id);
      if (job_order_.size() > kMaxJobRoutes) {
        jobs_.erase(job_order_.front());
        job_order_.erase(job_order_.begin());
      }
    }
    acc.job_id = std::move(cluster_id);
    return acc;
  }
  return last;
}

Result<api::JobStatusResponse> ClusterRouter::GetJob(const std::string& job_id,
                                                     int64_t wait_ms) {
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kJob, job_id, api::kMethodGetJob,
                                 IdPayload(wait_ms), wait_ms));
  return DecodeForJob<api::JobStatusResponse>(job_id, payload);
}

Result<api::JobStatusResponse> ClusterRouter::CancelJob(
    const std::string& job_id) {
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kJob, job_id, api::kMethodCancelJob,
                                 IdPayload()));
  return DecodeForJob<api::JobStatusResponse>(job_id, payload);
}

Result<api::JobProgressResponse> ClusterRouter::GetJobProgress(
    const std::string& job_id, int64_t last_seen_version, int64_t wait_ms) {
  auto progress = [&](const std::string& remote_id) {
    return api::ProgressRequest{remote_id, last_seen_version, wait_ms}.ToJson();
  };
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kJob, job_id,
                                 api::kMethodJobProgress, progress, wait_ms));
  return DecodeForJob<api::JobProgressResponse>(job_id, payload);
}

Result<std::string> ClusterRouter::JobTrace(const std::string& job_id) {
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kJob, job_id, api::kMethodJobTrace,
                                 IdPayload()));
  IFGEN_ASSIGN_OR_RETURN(api::TextReply t, api::TextReply::FromJson(payload));
  return t.text;
}

Result<api::SessionOpenResponse> ClusterRouter::OpenSession(
    const api::SessionOpenRequest& req) {
  // Sessions follow their job: the interface result, its backends, and the
  // runtime all live in the worker that ran the search.
  auto open = [&](const std::string& remote_id) {
    api::SessionOpenRequest remote = req;
    remote.job_id = remote_id;
    return remote.ToJson();
  };
  Route job;
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kJob, req.job_id,
                                 api::kMethodOpenSession, open, 0, &job));
  IFGEN_ASSIGN_OR_RETURN(api::SessionOpenResponse resp,
                         api::SessionOpenResponse::FromJson(payload));
  std::string cluster_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cluster_id = "s-" + std::to_string(next_session_++);
    sessions_[cluster_id] = Route{job.worker, resp.session_id, job.epoch};
  }
  resp.session_id = std::move(cluster_id);
  return resp;
}

Result<api::StepResponse> ClusterRouter::ApplyEvent(
    const std::string& session_id, const api::WidgetEventRequest& event) {
  auto step = [&](const std::string& remote_id) {
    return api::SessionEventRequest{remote_id, event}.ToJson();
  };
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kSession, session_id,
                                 api::kMethodSessionEvent, step));
  IFGEN_ASSIGN_OR_RETURN(api::StepResponse resp,
                         api::StepResponse::FromJson(payload));
  resp.session_id = session_id;
  return resp;
}

Result<api::ChangeBatchDto> ClusterRouter::PollSession(
    const std::string& session_id, int64_t wait_ms) {
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kSession, session_id,
                                 api::kMethodPollSession, IdPayload(wait_ms),
                                 wait_ms));
  return api::ChangeBatchDto::FromJson(payload);
}

Status ClusterRouter::CloseSession(const std::string& session_id) {
  IFGEN_RETURN_NOT_OK(Forward(RouteKind::kSession, session_id,
                              api::kMethodCloseSession, IdPayload())
                          .status());
  Forget(RouteKind::kSession, session_id);
  return Status::OK();
}

Result<api::TableDto> ClusterRouter::SessionTable(
    const std::string& session_id) {
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Forward(RouteKind::kSession, session_id,
                                 api::kMethodSessionTable, IdPayload()));
  return api::TableDto::FromJson(payload);
}

Result<api::CatalogResponse> ClusterRouter::Catalog() {
  // Workers load the same registered workloads; any healthy one answers.
  WorkerState* w = PickWorker(0);
  if (w == nullptr) return Status::Unavailable("no healthy workers");
  IFGEN_ASSIGN_OR_RETURN(JsonValue payload,
                         Rpc(w, api::kMethodCatalog, JsonValue::Object()));
  return api::CatalogResponse::FromJson(payload);
}

api::WorkerStatsDto ClusterRouter::WorkerRow(WorkerState* w) {
  api::WorkerStatsDto row;
  std::lock_guard<std::mutex> lock(w->mu);
  row.worker = static_cast<int64_t>(w->index);
  row.address = AddressOf(w->addr);
  row.healthy = w->healthy;
  row.draining = w->draining;
  row.jobs_submitted = w->last_ping.jobs_submitted;
  row.jobs_executed = w->last_ping.jobs_executed;
  row.jobs_pending = w->last_ping.jobs_pending;
  row.sessions_active = w->last_ping.sessions_active;
  row.rpcs = w->rpcs;
  row.rpc_failures = w->failures;
  row.reconnects = w->reconnects;
  return row;
}

Result<api::StatsResponse> ClusterRouter::Stats() {
  api::StatsResponse agg;
  // (workload, backend) -> row index in agg.backends, for the merge.
  std::map<std::pair<std::string, std::string>, size_t> backend_rows;
  for (auto& w : workers_) {
    api::WorkerStatsDto row = WorkerRow(w.get());
    if (row.healthy) {
      auto r = Rpc(w.get(), api::kMethodStats, JsonValue::Object());
      if (r.ok()) {
        auto stats = api::StatsResponse::FromJson(*r);
        if (stats.ok()) {
          agg.jobs_submitted += stats->jobs_submitted;
          agg.jobs_executed += stats->jobs_executed;
          agg.jobs_pending += stats->jobs_pending;
          agg.job_cache_hits += stats->job_cache_hits;
          agg.sessions_opened += stats->sessions_opened;
          agg.sessions_active += stats->sessions_active;
          agg.sessions_expired += stats->sessions_expired;
          agg.steps += stats->steps;
          agg.noops += stats->noops;
          agg.result_cache_hits += stats->result_cache_hits;
          agg.delta_execs += stats->delta_execs;
          agg.retruncates += stats->retruncates;
          agg.full_execs += stats->full_execs;
          agg.fallbacks += stats->fallbacks;
          for (const api::BackendStatsDto& b : stats->backends) {
            auto key = std::make_pair(b.workload, b.backend);
            auto it = backend_rows.find(key);
            if (it == backend_rows.end()) {
              backend_rows.emplace(key, agg.backends.size());
              agg.backends.push_back(b);
            } else {
              api::BackendStatsDto& row_b = agg.backends[it->second];
              row_b.prepares += b.prepares;
              row_b.plan_cache_hits += b.plan_cache_hits;
              row_b.executions += b.executions;
            }
          }
          // Fresher than the health loop's last ping.
          row.jobs_submitted = stats->jobs_submitted;
          row.jobs_executed = stats->jobs_executed;
          row.jobs_pending = stats->jobs_pending;
          row.sessions_active = stats->sessions_active;
        }
      }
    }
    agg.cluster_workers.push_back(std::move(row));
  }
  return agg;
}

Result<api::ClusterResponse> ClusterRouter::Cluster() {
  api::ClusterResponse resp;
  resp.mode = "cluster";
  for (auto& w : workers_) resp.workers.push_back(WorkerRow(w.get()));
  return resp;
}

Result<size_t> ClusterRouter::WorkerIndexForJob(const std::string& job_id) {
  IFGEN_ASSIGN_OR_RETURN(Route route, Find(RouteKind::kJob, job_id));
  return route.worker;
}

void ClusterRouter::DrainWorkers() {
  for (auto& w : workers_) {
    auto r = Rpc(w.get(), api::kMethodDrain, JsonValue::Object());
    if (!r.ok()) {
      IFGEN_LOG_C(Warning, "cluster")
          << "drain of worker " << w->index << " failed: "
          << r.status().ToString();
    }
  }
}

bool ClusterRouter::WaitDrained(int64_t timeout_ms) {
  Stopwatch watch;
  while (timeout_ms <= 0 || watch.ElapsedMillis() < timeout_ms) {
    bool drained = true;
    for (auto& w : workers_) {
      {
        std::lock_guard<std::mutex> lock(w->mu);
        if (!w->healthy) continue;  // a dead worker has nothing to finish
      }
      auto ping = Rpc(w.get(), api::kMethodPing, JsonValue::Object());
      if (!ping.ok()) continue;
      auto parsed = api::WorkerPingResponse::FromJson(*ping);
      if (parsed.ok() && parsed->jobs_pending > 0) {
        drained = false;
        break;
      }
    }
    if (drained) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

}  // namespace cluster
}  // namespace ifgen
