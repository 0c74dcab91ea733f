#pragma once

#include <chrono>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interface_generator.h"
#include "engine/backend.h"
#include "learn/experience.h"
#include "obs/trace.h"
#include "runtime/interactive.h"
#include "runtime/thread_pool.h"
#include "search/progress.h"
#include "search/timeman.h"

namespace ifgen {

/// \brief One generation job: a query log plus the generator configuration.
struct JobSpec {
  std::vector<std::string> sqls;
  GeneratorOptions options;
};

/// \brief Lifecycle of a tracked generation job (see
/// GenerationService::SubmitJob). Terminal states: kDone/kFailed/kCancelled.
enum class JobState : uint8_t {
  kQueued = 0,  ///< admitted, waiting for a worker
  kRunning,     ///< a worker is generating
  kDone,        ///< result available
  kFailed,      ///< generation returned an error
  kCancelled,   ///< cancelled while queued or aborted while running
};

std::string_view JobStateName(JobState s);

/// \brief A concurrent interface-generation service: many query logs in,
/// many interfaces out (the serving posture of PI2, which wraps this
/// algorithm into an end-to-end interface service).
///
/// Jobs run on a FIFO thread pool, so queued jobs start in admission
/// order; identical jobs — same canonical query log (parsed, unparsed, and
/// sorted, so formatting and order don't matter) and same options — are
/// answered from an LRU result cache.
/// Each job's search can itself be parallel (JobSpec.options.parallel):
/// its first tree runs on the job's worker and each further tree on a
/// thread of its own, so a job never waits on the pool.
///
/// A job is submitted one way: SubmitJob returns a JobId whose state,
/// timing, anytime progress and result are read from one snapshot (JobInfo)
/// through GetJob/WaitJob, and whose run is cancellable. Every job owns a
/// ProgressSink that its search publishes into and that closes on the
/// job's terminal transition; WaitJob waits on that sink alone, so a
/// finishing job wakes only its own waiters. The v1 API layer (src/api)
/// serves this protocol.
class GenerationService {
 public:
  struct Options {
    /// Worker threads executing jobs (min 1).
    size_t num_threads = 4;
    /// Completed results kept in the LRU cache; 0 disables caching.
    size_t cache_capacity = 64;
    /// Upper bound on admitted-but-unfinished jobs (queued + running);
    /// SubmitJob answers ResourceExhausted beyond it (the API layer maps
    /// that to HTTP 429). 0 = unbounded.
    size_t max_pending_jobs = 0;
    /// Terminal job records retained for GetJob; the oldest finished record
    /// is evicted beyond this (a later GetJob answers NotFound).
    size_t job_history_capacity = 256;
    /// Persistent experience store shared by every job with
    /// `options.experience` set (see src/learn/experience.h). The caller
    /// owns persistence: servers load it before constructing the service
    /// and save it on drain / on a cadence. Null = experience jobs run cold
    /// and record nothing (the flag still changes sampling mode, so results
    /// stay bit-identical to a store-backed cold start).
    std::shared_ptr<learn::ExperienceStore> experience;
  };

  GenerationService();  ///< default Options
  explicit GenerationService(Options opts);
  ~GenerationService();

  using JobId = uint64_t;

  /// \brief Observable snapshot of one job: state, phase timings, the
  /// search's latest best-so-far and — in a terminal state — the result or
  /// error.
  struct JobInfo {
    JobId id = 0;
    JobState state = JobState::kQueued;
    bool cache_hit = false;  ///< answered from the result cache
    int64_t queued_ms = 0;   ///< time spent waiting for a worker (so far)
    int64_t run_ms = 0;      ///< execution time (so far, when running)
    /// kDone: the full result. kCancelled: the best-so-far partial result
    /// when the job was aborted mid-run after at least one improvement was
    /// published (null when cancelled while still queued).
    std::shared_ptr<const GeneratedInterface> result;
    Status error;  ///< kFailed/kCancelled only
    /// Per-job span capture, present when tracing (obs::SetTracingEnabled)
    /// was on while the job executed. Export with ToChromeTraceJson().
    std::shared_ptr<const obs::TraceRecorder> trace;
    /// The options the job was submitted with, without the runtime wiring
    /// the service adds to a run (stop handle, progress sink, warm start,
    /// shared cost caches), and the workload name it was admitted under
    /// (empty for a raw log). The record owns both, so they are evicted
    /// with it.
    GeneratorOptions options;
    std::string workload;
    /// The job's latest published best-so-far (version 0 and a null tree
    /// until the search first improves): the anytime view of a running job.
    ProgressSink::Event progress;

    bool terminal() const {
      return state == JobState::kDone || state == JobState::kFailed ||
             state == JobState::kCancelled;
    }
  };

  /// Admits one job and returns its id immediately (kDone at once on a
  /// cache hit); ResourceExhausted when `max_pending_jobs` jobs are already
  /// in flight. `workload` names the store the job's log came from; the
  /// record keeps it for JobInfo and it plays no part in the result.
  Result<JobId> SubmitJob(JobSpec spec, std::string workload = {});

  /// Snapshot of a job's current state; NotFound for ids never issued or
  /// evicted from the finished-job history.
  Result<JobInfo> GetJob(JobId id) const;

  /// `after_version` of WaitJob that wakes on the terminal transition only.
  static constexpr uint64_t kTerminalOnly = std::numeric_limits<uint64_t>::max();

  /// Blocks on the job's progress sink until the job is terminal, its
  /// progress version exceeds `after_version`, or `timeout_ms` elapses
  /// (0 = no wait, negative = no timeout), then returns one snapshot —
  /// callers must check `terminal()` when they passed a timeout or a
  /// version. NotFound for unknown ids and for a record evicted while
  /// waiting.
  Result<JobInfo> WaitJob(JobId id, int64_t timeout_ms = -1,
                          uint64_t after_version = kTerminalOnly);

  /// Cancels a job. Still queued: the state becomes kCancelled (error
  /// Cancelled) immediately. Running: the job's StopHandle is flagged and
  /// the search stops within its current iteration (every loop guard and
  /// every expansion loop polls the flag); the job then lands in
  /// kCancelled carrying the best-so-far partial result (the returned
  /// snapshot may still say kRunning — WaitJob observes the transition).
  /// Terminal jobs are returned unchanged.
  Result<JobInfo> CancelJob(JobId id);

  /// Cache key: hash of the *sorted canonical* SQL (each query parsed and
  /// unparsed, the list sorted) combined with a hash of every
  /// result-affecting option. Unparsable logs fall back to the raw strings
  /// (still deterministic; such jobs fail identically anyway).
  /// GeneratorOptions::backend IS part of the key: the backend never
  /// changes the generated widgets, but with backend selection exposed
  /// per-request at the API boundary, two requests differing only in
  /// backend must not alias one cached result — the response reports the
  /// backend sessions will execute on.
  static uint64_t JobKey(const JobSpec& spec);

  /// Cost-identity fingerprint of the experience store and of the shared
  /// cost caches (state-cost memo and delta-cost cache): two jobs share
  /// records iff a canonical state's sampled cost is interchangeable between
  /// them — same canonical query log and every EvalOptions-affecting knob
  /// (screen, constants, k/parse/enumeration, delta flag, seed, and the
  /// experience flag itself).
  /// Deliberately EXCLUDES budget/deadline/iteration caps, algorithm,
  /// parallelism, and backend, so a re-run of the same log under a
  /// different budget still warm-starts from the store.
  static uint64_t TtStoreKey(const JobSpec& spec);

  /// Returns the execution backend for (db, kind), constructing it on first
  /// use and caching it for the service's lifetime so plan caches stay warm
  /// across jobs that serve interfaces over the same store. `db` must
  /// outlive the service.
  Result<std::shared_ptr<ExecutionBackend>> BackendFor(const Database* db,
                                                       BackendKind kind);

  /// \brief Stats snapshot of one shared backend (see backend_stats).
  struct BackendStatEntry {
    const Database* db = nullptr;
    BackendKind kind = BackendKind::kReference;
    BackendStats stats;
  };
  /// Per-backend counters for every (db, kind) BackendFor has constructed —
  /// the observability feed of GET /v1/stats.
  std::vector<BackendStatEntry> backend_stats() const;

  /// Opens a per-user interactive runtime over a generated interface: the
  /// serving-side session object. Each runtime owns its own widget state,
  /// result maintenance, and change feed, but executes on the *shared*
  /// (db, kind) backend from BackendFor, so all sessions over one store
  /// share compiled plans. `db` must outlive the returned runtime.
  Result<std::shared_ptr<InteractiveRuntime>> OpenSession(
      const GeneratedInterface& iface, const CostConstants& constants,
      const Database* db, BackendKind kind,
      InteractiveRuntime::Options opts = {});

  /// \brief One-lock snapshot of every service-level counter — the feed of
  /// GET /v1/stats. The same event sites also bump the obs registry
  /// (ifgen_jobs_*, ifgen_sessions_opened_total), so the two views cannot
  /// drift apart.
  struct CountersSnapshot {
    size_t jobs_submitted = 0;
    size_t jobs_executed = 0;
    size_t jobs_pending = 0;
    size_t cache_hits = 0;
    size_t sessions_opened = 0;
    /// Experience-store telemetry (all zero without a configured store).
    size_t learn_store_entries = 0;  ///< records currently held
    size_t learn_hits = 0;           ///< store probes that found a record
    size_t learn_misses = 0;         ///< store probes that found nothing
    size_t learn_seeded = 0;         ///< records seeded into search bridges
    size_t learn_recorded = 0;       ///< records merged back from searches
    size_t learn_saves = 0;          ///< successful SaveTo calls
    size_t learn_loads = 0;          ///< successful LoadFrom calls
  };
  CountersSnapshot counters_snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Tracked state of one job. Lives in jobs_ under mu_.
  struct JobRecord {
    JobState state = JobState::kQueued;
    bool cache_hit = false;
    Clock::time_point submitted;
    Clock::time_point started;
    Clock::time_point finished;
    std::shared_ptr<const GeneratedInterface> result;
    Status error;
    std::shared_ptr<const obs::TraceRecorder> trace;
    GeneratorOptions options;  ///< as submitted, wiring cleared
    std::string workload;
    /// Created at admission for every job and closed on every terminal
    /// transition: the one signal WaitJob waits on.
    std::shared_ptr<ProgressSink> progress;
    /// Cancel/time-control stop flag, wired into the job's search options.
    std::shared_ptr<StopHandle> stop;
  };

  JobInfo SnapshotLocked(JobId id, const JobRecord& rec) const;
  /// Marks `id` terminal, records history for eviction, and closes the
  /// job's sink, which wakes its waiters. Requires mu_ held.
  void FinishLocked(JobId id, JobRecord* rec, JobState state,
                    std::shared_ptr<const GeneratedInterface> result, Status error);

  std::shared_ptr<const GeneratedInterface> CacheLookup(uint64_t key);
  void CacheStore(uint64_t key, std::shared_ptr<const GeneratedInterface> value);

  size_t cache_capacity_;
  size_t max_pending_jobs_;
  size_t job_history_capacity_;
  /// Immutable after construction (jobs read it without mu_).
  std::shared_ptr<learn::ExperienceStore> experience_;

  mutable std::mutex mu_;
  /// LRU: most recent at the front; the map points into the list.
  std::list<std::pair<uint64_t, std::shared_ptr<const GeneratedInterface>>> lru_;
  std::unordered_map<
      uint64_t,
      std::list<std::pair<uint64_t, std::shared_ptr<const GeneratedInterface>>>::iterator>
      index_;
  std::map<JobId, JobRecord> jobs_;
  std::deque<JobId> finished_order_;  ///< terminal jobs, oldest first
  JobId next_job_id_ = 1;
  size_t jobs_pending_ = 0;
  size_t jobs_submitted_ = 0;
  size_t jobs_executed_ = 0;
  size_t cache_hits_ = 0;
  size_t sessions_opened_ = 0;

  /// One state-cost memo and delta-cost cache per cost identity
  /// (TtStoreKey), shared by its experience jobs (FIFO eviction).
  std::map<uint64_t, std::shared_ptr<SharedCostCaches>> cost_stores_;
  std::deque<uint64_t> cost_store_order_;  ///< store keys, oldest first
  size_t learn_seeded_ = 0;   ///< experience records seeded into searches
  size_t learn_recorded_ = 0; ///< experience records merged back from searches

  /// (database, kind) -> shared backend instance.
  std::map<std::pair<const Database*, BackendKind>,
           std::shared_ptr<ExecutionBackend>>
      backends_;

  /// Declared last on purpose: ~ThreadPool joins the workers, and in-flight
  /// jobs touch the mutex/cache members above — those must still be alive
  /// while the pool drains during destruction.
  ThreadPool pool_;
};

}  // namespace ifgen
