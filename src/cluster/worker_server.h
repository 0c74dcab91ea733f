#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/api_service.h"
#include "api/rpc.h"
#include "util/status.h"

namespace ifgen {
namespace cluster {

/// \brief One cluster worker: an in-process ApiService (jobs + sessions)
/// exposed over the v1 RPC envelope on a TCP listener — length-prefixed
/// JSON frames (cluster/frame.h), one request/reply pair at a time per
/// connection, one thread per connection (connections are few: the router
/// pools a handful per worker).
///
/// Lifecycle: Start() binds (port 0 = ephemeral, read back via port()),
/// Drain() flips the worker to reject new generate.submit with retryable
/// Unavailable while in-flight jobs and open sessions keep serving (the
/// SIGTERM path of a worker process: drain, wait for pending jobs to hit
/// zero, exit), Stop() shuts every socket down and joins.
class WorkerServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 = ephemeral
    api::ApiService::Options service;
  };

  WorkerServer() = default;
  ~WorkerServer();
  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// Loads workloads, binds, and starts the accept loop.
  Status Start(Options opts);
  /// Stops accepting, rejects new submissions (retryable Unavailable);
  /// running jobs and sessions continue.
  void Drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  /// The number of queued + running jobs (the drain wait condition).
  int64_t jobs_pending() const;
  void Stop();

  int port() const { return port_; }
  api::ApiService& service() { return *service_; }
  /// This incarnation's epoch (nonzero, rolled at Start): stamped on every
  /// RpcReply so routers can tell a restarted process — with a fresh dense
  /// id space — from the one that owned their recorded job/session routes.
  int64_t epoch() const { return epoch_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Decodes the payload, calls the ApiService method, encodes the reply
  /// payload. Transport-independent: errors become RpcReply failures.
  Result<JsonValue> Call(const api::RpcEnvelope& env);
  void ReapFinishedLocked();

  Options opts_;
  std::unique_ptr<api::ApiService> service_;
  int listen_fd_ = -1;
  int port_ = 0;
  int64_t epoch_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace cluster
}  // namespace ifgen
