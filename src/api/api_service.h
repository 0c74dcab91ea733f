#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/dto.h"
#include "api/frontend.h"
#include "runtime/service.h"
#include "workload/loader.h"

namespace ifgen {
namespace api {

/// \brief The in-process ServiceFrontend: every public operation takes and
/// returns v1 DTOs (api/dto.h) and reports failures as Status — transports
/// (src/http, the cluster WorkerServer, tests) only translate.
///
/// Wraps a GenerationService with:
///  - async job handles: SubmitGenerate admits a tracked job (bounded
///    pending queue → ResourceExhausted → HTTP 429), GetJob observes
///    state/timings/result, CancelJob cancels the queued phase;
///  - a concurrency-safe session registry: OpenSession binds a finished
///    job's interface to a per-user InteractiveRuntime over the named
///    workload's store, with TTL + capacity eviction; ApplyEvent drives
///    widgets and answers with its step's own batch; PollSession drains the
///    session's one feed, shared by all of its pollers;
///  - catalog/introspection: the registered workloads and compiled-in
///    backends, plus service/backend/runtime counters.
class ApiService : public ServiceFrontend {
 public:
  struct Options {
    /// Serving defaults differ from GenerationService's: a bounded pending
    /// queue (→ 429 under overload) instead of unbounded admission.
    static GenerationService::Options DefaultServiceOptions() {
      GenerationService::Options o;
      o.num_threads = 2;
      o.max_pending_jobs = 64;
      return o;
    }

    GenerationService::Options service = DefaultServiceOptions();
    /// Rows per workload table; 0 = each workload's default size.
    size_t workload_rows = 0;
    /// Open sessions beyond this evict the least-recently-used one.
    size_t max_sessions = 256;
    /// Sessions idle longer than this are evicted (lazily, on any session
    /// access); <= 0 disables TTL eviction.
    int64_t session_ttl_ms = 10 * 60 * 1000;
    InteractiveRuntime::Options runtime;
    /// Trace-fitted prior weights (learn/prior_fit.h) applied to every
    /// admitted job's PriorOptions in SubmitGenerate.
    /// Empty = the hand-set BaseRuleWeight defaults.
    std::vector<std::pair<std::string, double>> learned_prior_weights;
  };

  /// Loads every registered workload (flights, sdss, synthetic) and wires
  /// the generation service. Fails only when no workload loads.
  static Result<std::unique_ptr<ApiService>> Create(Options opts);
  static Result<std::unique_ptr<ApiService>> Create() { return Create(Options()); }

  // ---- jobs -------------------------------------------------------------
  Result<GenerateAccepted> SubmitGenerate(const GenerateRequest& req) override;
  /// `wait_ms` > 0 blocks until the job is terminal or the deadline.
  Result<JobStatusResponse> GetJob(const std::string& job_id,
                                   int64_t wait_ms = 0) override;
  Result<JobStatusResponse> CancelJob(const std::string& job_id) override;
  /// Versioned best-so-far snapshot of a running job's search. With
  /// `wait_ms` > 0, long-polls (condvar) until the progress version exceeds
  /// `last_seen_version`, the job turns terminal, or the timeout. The
  /// terminal frame (`final` = true) embeds the job's full result when one
  /// exists; mid-run frames carry the best-so-far partial (no widgets).
  Result<JobProgressResponse> GetJobProgress(const std::string& job_id,
                                             int64_t last_seen_version,
                                             int64_t wait_ms = 0) override;
  /// The job's captured span trace as Chrome trace-event JSON (Perfetto);
  /// NotFound when the job is unknown or ran with tracing disabled.
  Result<std::string> JobTrace(const std::string& job_id) override;

  // ---- sessions ---------------------------------------------------------
  Result<SessionOpenResponse> OpenSession(const SessionOpenRequest& req) override;
  Result<StepResponse> ApplyEvent(const std::string& session_id,
                                  const WidgetEventRequest& event) override;
  /// Drains the session's feed (InteractiveRuntime::PollFeed; independent
  /// of the per-event batches in StepResponse, so a feed consumer sees
  /// every step exactly once regardless of event traffic). `wait_ms` > 0
  /// parks on the runtime's version condvar until a step lands or the
  /// deadline.
  Result<ChangeBatchDto> PollSession(const std::string& session_id,
                                     int64_t wait_ms = 0) override;
  Status CloseSession(const std::string& session_id) override;
  /// Current result snapshot (the feed consumer's resync path).
  Result<TableDto> SessionTable(const std::string& session_id) override;

  // ---- introspection ----------------------------------------------------
  Result<CatalogResponse> Catalog() override;
  Result<StatsResponse> Stats() override;
  /// Always mode "single": this frontend IS the process doing the work.
  Result<ClusterResponse> Cluster() override;

  size_t sessions_active() const;
  GenerationService& generation_service() { return service_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct SessionEntry {
    std::shared_ptr<InteractiveRuntime> runtime;
    std::string workload;
    Clock::time_point last_touch;
  };

  explicit ApiService(Options opts);
  Status LoadWorkloads();

  Result<GenerationService::JobId> ParseJobId(const std::string& job_id) const;
  Result<const WorkloadBundle*> FindWorkload(const std::string& name) const;
  /// Finds + touches a session and sweeps expired ones. Requires mu_ held.
  Result<SessionEntry*> TouchSessionLocked(const std::string& session_id);
  void SweepSessionsLocked();

  Options opts_;
  GenerationService service_;
  /// name -> bundle; unique_ptr for address stability (backends and
  /// sessions hold Database pointers into the bundle).
  std::map<std::string, std::unique_ptr<WorkloadBundle>> workloads_;

  mutable std::mutex mu_;
  std::map<std::string, SessionEntry> sessions_;
  uint64_t next_session_ = 1;
  size_t sessions_expired_ = 0;
  /// Last TTL sweep; bounds SweepSessionsLocked to one scan per ttl/10.
  Clock::time_point last_sweep_{};
  /// Counters of sessions that were evicted/closed, folded into Stats so
  /// the runtime aggregate does not shrink when sessions end.
  InteractiveRuntime::Counters retired_counters_;
};

}  // namespace api
}  // namespace ifgen
