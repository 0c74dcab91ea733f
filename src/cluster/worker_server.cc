#include "cluster/worker_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "cluster/frame.h"
#include "http/net.h"
#include "util/json.h"
#include "util/logging.h"

namespace ifgen {
namespace cluster {

using api::RpcEnvelope;
using api::RpcReply;

namespace {

/// A connection waits for its next request without an idle bound. The
/// router pools connections and sends on them after any silence; a worker
/// that closed an idle one would make the router's next Rpc on it read EOF
/// and mark this worker unhealthy.
constexpr int64_t kIdleReadTimeoutMs = 0;

}  // namespace

WorkerServer::~WorkerServer() { Stop(); }

Status WorkerServer::Start(Options opts) {
  opts_ = std::move(opts);
  IFGEN_ASSIGN_OR_RETURN(service_, api::ApiService::Create(opts_.service));
  IFGEN_ASSIGN_OR_RETURN(listen_fd_, net::ListenTcp(opts_.host, opts_.port));
  IFGEN_ASSIGN_OR_RETURN(port_, net::LocalPort(listen_fd_));
  // Incarnation epoch: pid ⊕ steady-clock ns, masked positive, re-rolled
  // away from 0 ("unknown"). Two starts of one worker — even on the same
  // port — answer with different epochs, which is what lets routers detect
  // that a recorded job/session route's dense id now means something else.
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  epoch_ = static_cast<int64_t>(
      ((static_cast<uint64_t>(::getpid()) << 32) ^ ns) & 0x7fffffffffffffffULL);
  if (epoch_ == 0) epoch_ = 1;
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  IFGEN_LOG_C(Info, "cluster") << "worker listening on " << opts_.host << ":"
                               << port_;
  return Status::OK();
}

void WorkerServer::Drain() { draining_.store(true, std::memory_order_relaxed); }

int64_t WorkerServer::jobs_pending() const {
  if (service_ == nullptr) return 0;
  return static_cast<int64_t>(
      service_->generation_service().counters_snapshot().jobs_pending);
}

void WorkerServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  // shutdown() (not just close) unblocks the thread parked in accept()/recv.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
}

void WorkerServer::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void WorkerServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    // A reply is two sends (length prefix, then payload); under Nagle the
    // payload waits for the router's delayed ACK of the prefix.
    net::SetNoDelay(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    conns_.push_back(std::move(conn));
  }
}

void WorkerServer::ServeConnection(Connection* conn) {
  // Sequential request/reply frames until the peer hangs up or Stop().
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto frame = ReadFrame(conn->fd, kIdleReadTimeoutMs);
    if (!frame.ok()) break;
    RpcReply reply;
    auto parsed = ParseJson(*frame);
    if (!parsed.ok()) {
      reply = RpcReply::Failure(0, parsed.status());
    } else {
      auto env = RpcEnvelope::FromJson(*parsed);
      if (!env.ok()) {
        reply = RpcReply::Failure(0, env.status());
      } else if (env->api_version != api::kRpcApiVersion) {
        reply = RpcReply::Failure(
            env->request_id,
            Status::Invalid("unsupported api_version '" + env->api_version +
                            "' (this worker speaks " +
                            std::string(api::kRpcApiVersion) + ")"));
      } else {
        auto payload = Call(*env);
        reply = payload.ok()
                    ? RpcReply::Success(env->request_id, std::move(*payload))
                    : RpcReply::Failure(env->request_id, payload.status());
      }
    }
    // Every reply — success or failure — carries this incarnation's epoch.
    reply.epoch = epoch_;
    if (!WriteFrame(conn->fd, WriteJson(reply.ToJson())).ok()) break;
  }
  conn->done.store(true, std::memory_order_release);
}

Result<JsonValue> WorkerServer::Call(const RpcEnvelope& env) {
  using namespace api;  // NOLINT(build/namespaces)
  const std::string& m = env.method;
  if (m == kMethodSubmitGenerate) {
    if (draining()) {
      return Status::Unavailable("worker is draining; resubmit elsewhere");
    }
    IFGEN_ASSIGN_OR_RETURN(GenerateRequest req,
                           GenerateRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(GenerateAccepted acc, service_->SubmitGenerate(req));
    return acc.ToJson();
  }
  if (m == kMethodGetJob) {
    IFGEN_ASSIGN_OR_RETURN(IdRequest q, IdRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(JobStatusResponse resp,
                           service_->GetJob(q.id, q.wait_ms));
    return resp.ToJson();
  }
  if (m == kMethodCancelJob) {
    IFGEN_ASSIGN_OR_RETURN(IdRequest q, IdRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(JobStatusResponse resp, service_->CancelJob(q.id));
    return resp.ToJson();
  }
  if (m == kMethodJobProgress) {
    IFGEN_ASSIGN_OR_RETURN(ProgressRequest q,
                           ProgressRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(
        JobProgressResponse resp,
        service_->GetJobProgress(q.job_id, q.last_seen_version, q.wait_ms));
    return resp.ToJson();
  }
  if (m == kMethodJobTrace) {
    IFGEN_ASSIGN_OR_RETURN(IdRequest q, IdRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(std::string trace, service_->JobTrace(q.id));
    TextReply t;
    t.text = std::move(trace);
    return t.ToJson();
  }
  if (m == kMethodOpenSession) {
    IFGEN_ASSIGN_OR_RETURN(SessionOpenRequest req,
                           SessionOpenRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(SessionOpenResponse resp,
                           service_->OpenSession(req));
    return resp.ToJson();
  }
  if (m == kMethodSessionEvent) {
    IFGEN_ASSIGN_OR_RETURN(SessionEventRequest req,
                           SessionEventRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(StepResponse resp,
                           service_->ApplyEvent(req.session_id, req.event));
    return resp.ToJson();
  }
  if (m == kMethodPollSession) {
    IFGEN_ASSIGN_OR_RETURN(IdRequest q, IdRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(ChangeBatchDto batch,
                           service_->PollSession(q.id, q.wait_ms));
    return batch.ToJson();
  }
  if (m == kMethodCloseSession) {
    IFGEN_ASSIGN_OR_RETURN(IdRequest q, IdRequest::FromJson(env.payload));
    IFGEN_RETURN_NOT_OK(service_->CloseSession(q.id));
    return TextReply().ToJson();
  }
  if (m == kMethodSessionTable) {
    IFGEN_ASSIGN_OR_RETURN(IdRequest q, IdRequest::FromJson(env.payload));
    IFGEN_ASSIGN_OR_RETURN(TableDto table, service_->SessionTable(q.id));
    return table.ToJson();
  }
  if (m == kMethodCatalog) {
    IFGEN_ASSIGN_OR_RETURN(CatalogResponse resp, service_->Catalog());
    return resp.ToJson();
  }
  if (m == kMethodStats) {
    IFGEN_ASSIGN_OR_RETURN(StatsResponse resp, service_->Stats());
    return resp.ToJson();
  }
  if (m == kMethodPing) {
    const GenerationService::CountersSnapshot svc =
        service_->generation_service().counters_snapshot();
    WorkerPingResponse p;
    p.jobs_submitted = static_cast<int64_t>(svc.jobs_submitted);
    p.jobs_executed = static_cast<int64_t>(svc.jobs_executed);
    p.jobs_pending = static_cast<int64_t>(svc.jobs_pending);
    p.sessions_active = static_cast<int64_t>(service_->sessions_active());
    p.draining = draining();
    return p.ToJson();
  }
  if (m == kMethodDrain) {
    Drain();
    return TextReply().ToJson();
  }
  return Status::Unimplemented("unknown RPC method '" + m + "'");
}

}  // namespace cluster
}  // namespace ifgen
