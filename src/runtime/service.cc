#include "runtime/service.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "util/hash.h"

namespace ifgen {

namespace {

/// Registry handles for the job/session protocol (resolved once).
struct ServiceMetrics {
  obs::Counter* jobs_submitted;
  obs::Counter* jobs_rejected;
  obs::Counter* jobs_executed;
  obs::Counter* jobs_cache_hits;
  obs::Counter* jobs_evicted;
  obs::Counter* sessions_opened;
  obs::Gauge* jobs_pending;
  obs::Histogram* queued_us;
  obs::Histogram* run_us;
  static const ServiceMetrics& Get() {
    static const ServiceMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      ServiceMetrics s;
      s.jobs_submitted =
          reg.GetCounter("ifgen_jobs_submitted_total", "Generation jobs submitted");
      s.jobs_rejected = reg.GetCounter("ifgen_jobs_admission_rejected_total",
                                       "Jobs rejected by admission control");
      s.jobs_executed = reg.GetCounter("ifgen_jobs_executed_total",
                                       "Generation jobs executed by a worker");
      s.jobs_cache_hits = reg.GetCounter("ifgen_jobs_cache_hits_total",
                                         "Jobs answered from the result cache");
      s.jobs_evicted = reg.GetCounter("ifgen_jobs_history_evicted_total",
                                      "Terminal job records evicted from history");
      s.sessions_opened = reg.GetCounter("ifgen_sessions_opened_total",
                                         "Interactive sessions opened");
      s.jobs_pending =
          reg.GetGauge("ifgen_jobs_pending", "Jobs admitted but not yet terminal");
      // 64us..~8.6s in x2 steps: generation runs for milliseconds to seconds.
      obs::HistogramOptions opts;
      opts.first_bound = 64.0;
      opts.growth = 2.0;
      opts.num_buckets = 18;
      s.queued_us = reg.GetHistogram("ifgen_job_queued_duration_us",
                                     "Time jobs spent waiting for a worker "
                                     "(microseconds)",
                                     opts);
      s.run_us = reg.GetHistogram("ifgen_job_run_duration_us",
                                  "Job execution time (microseconds)", opts);
      return s;
    }();
    return m;
  }
};

// Cross-job store bounds; docs/runtime.md and docs/learning.md give the
// reason for each value.
constexpr size_t kExperienceSeedLimit = 1024;    ///< records seeded per search
constexpr size_t kSharedDeltaStoreCapacity = 8;  ///< delta caches, oldest dropped

uint64_t HashU64(uint64_t h, uint64_t v) { return HashCombine(h, v); }

uint64_t HashF64(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v, "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof bits);
  return HashCombine(h, bits);
}

/// Fingerprint of every option that can change a job's output. Hashed
/// field-by-field (structs have padding, so raw-byte hashes would be
/// nondeterministic) — except CostConstants, whose members are uniformly
/// 8-byte doubles/size_t and therefore padding-free.
uint64_t OptionsFingerprint(const GeneratorOptions& o) {
  uint64_t h = 0x1f65ULL;
  h = HashU64(h, static_cast<uint64_t>(o.screen.width));
  h = HashU64(h, static_cast<uint64_t>(o.screen.height));
  h = HashU64(h, static_cast<uint64_t>(o.algorithm));

  const SearchOptions& s = o.search;
  h = HashU64(h, static_cast<uint64_t>(s.time_budget_ms));
  h = HashU64(h, s.max_iterations);
  h = HashU64(h, s.seed);
  h = HashF64(h, s.exploration_c);
  h = HashU64(h, s.expand_all_children ? 1 : 0);
  h = HashF64(h, s.rollout_forward_bias);
  h = HashF64(h, s.rollout_saturate_prob);
  h = HashF64(h, s.rollout_eval_prob);
  h = HashU64(h, s.beam_width);
  h = HashU64(h, s.exhaustive_max_depth);
  h = HashU64(h, s.exhaustive_max_states);

  // Prior knobs steer PUCT selection and widening order, so any of them can
  // change which interface the search lands on.
  const PriorOptions& pr = s.priors;
  h = HashU64(h, pr.use_priors ? 1 : 0);
  h = HashU64(h, pr.progressive_widening ? 1 : 0);
  for (const auto& [name, weight] : pr.learned_weights) {
    h = HashBytes(name, h);
    h = HashF64(h, weight);
  }

  // Anytime time control changes where the search stops, hence the result.
  // (The stop/progress pointers are runtime wiring and deliberately NOT
  // hashed: attaching a sink never changes the output.)
  const TimeControlOptions& t = s.time_control;
  h = HashU64(h, static_cast<uint64_t>(t.deadline_ms));
  h = HashF64(h, t.target_cost);
  h = HashF64(h, t.plateau_fraction);

  const ParallelOptions& p = o.parallel;
  h = HashU64(h, p.num_threads);

  const RuleSetOptions& r = o.rules;
  h = HashU64(h, r.max_tree_nodes);

  h = HashBytes(std::string_view(reinterpret_cast<const char*>(&o.constants),
                                 sizeof o.constants),
                h);

  // The backend never changes the generated widgets, but it IS part of the
  // served contract once requests select it (sessions execute on it), so
  // requests differing only in backend must not alias one cache entry.
  h = HashU64(h, static_cast<uint64_t>(o.backend));
  h = HashU64(h, o.k_assignments);
  // experience switches cost sampling to the state-keyed mode, which
  // changes which assignments the k random draws produce — two requests
  // differing only in this flag must not alias one cache entry (the store
  // bridge itself is runtime wiring and stays out of every key).
  h = HashU64(h, o.experience ? 1 : 0);
  return h;
}

/// Sorted canonical forms of a query log (each parsed and unparsed, raw
/// string fallback for unparsable queries) — the value identity of the SQLs,
/// shared by JobKey and TtStoreKey.
std::vector<std::string> CanonicalSqls(const std::vector<std::string>& sqls) {
  std::vector<std::string> canonical;
  canonical.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    auto parsed = ParseQuery(sql);
    if (parsed.ok()) {
      auto unparsed = Unparse(*parsed);
      canonical.push_back(unparsed.ok() ? *unparsed : sql);
    } else {
      canonical.push_back(sql);
    }
  }
  std::sort(canonical.begin(), canonical.end());
  return canonical;
}

int64_t MsBetween(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(b - a).count();
}

}  // namespace

std::string_view JobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

uint64_t GenerationService::JobKey(const JobSpec& spec) {
  uint64_t h = OptionsFingerprint(spec.options);
  for (const std::string& sql : CanonicalSqls(spec.sqls)) {
    h = HashCombine(h, HashBytes(sql));
  }
  return h;
}

uint64_t GenerationService::TtStoreKey(const JobSpec& spec) {
  const GeneratorOptions& o = spec.options;
  // Everything that flows into EvalOptions (MakeEvalOptions) plus the
  // sampling seed: states hash identically across jobs, so as long as these
  // agree, a canonical state's sampled cost is the same number in both jobs
  // and entries are interchangeable. Budgets, deadlines, algorithm, and
  // parallelism change which states get visited — not what they cost — so
  // they are deliberately absent. The parse-limit and enumeration-cap
  // constants keep their slots, and so does the deleted cache-peering flag
  // (always 0): persisted experience records use this key.
  uint64_t h = 0x77a5ULL;
  h = HashU64(h, static_cast<uint64_t>(o.screen.width));
  h = HashU64(h, static_cast<uint64_t>(o.screen.height));
  h = HashBytes(std::string_view(reinterpret_cast<const char*>(&o.constants),
                                 sizeof o.constants),
                h);
  h = HashU64(h, o.k_assignments);
  h = HashU64(h, kParseLimit);
  h = HashF64(h, kEnumerationCap);
  h = HashU64(h, o.delta_cost_eval ? 1 : 0);
  h = HashU64(h, 0);
  h = HashU64(h, o.experience ? 1 : 0);
  h = HashU64(h, o.search.seed);
  for (const std::string& sql : CanonicalSqls(spec.sqls)) {
    h = HashCombine(h, HashBytes(sql));
  }
  return h;
}

Result<std::shared_ptr<ExecutionBackend>> GenerationService::BackendFor(
    const Database* db, BackendKind kind) {
  if (db == nullptr) return Status::Invalid("BackendFor: null database");
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = backends_.find({db, kind});
    if (it != backends_.end()) return it->second;
  }
  // Construct outside the lock (SQLite ingestion can be slow); on a race
  // the first-inserted instance wins so plan caches stay shared.
  IFGEN_ASSIGN_OR_RETURN(std::unique_ptr<ExecutionBackend> fresh,
                         CreateBackend(kind, db));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      backends_.emplace(std::make_pair(db, kind),
                        std::shared_ptr<ExecutionBackend>(std::move(fresh)));
  return it->second;
}

std::vector<GenerationService::BackendStatEntry> GenerationService::backend_stats()
    const {
  std::vector<BackendStatEntry> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(backends_.size());
  for (const auto& [key, backend] : backends_) {
    out.push_back({key.first, key.second, backend->stats()});
  }
  return out;
}

Result<std::shared_ptr<InteractiveRuntime>> GenerationService::OpenSession(
    const GeneratedInterface& iface, const CostConstants& constants,
    const Database* db, BackendKind kind, InteractiveRuntime::Options opts) {
  IFGEN_ASSIGN_OR_RETURN(std::shared_ptr<ExecutionBackend> backend,
                         BackendFor(db, kind));
  IFGEN_ASSIGN_OR_RETURN(std::unique_ptr<InteractiveRuntime> runtime,
                         InteractiveRuntime::Create(iface, constants,
                                                    std::move(backend), opts));
  std::lock_guard<std::mutex> lock(mu_);
  ++sessions_opened_;
  ServiceMetrics::Get().sessions_opened->Inc();
  return std::shared_ptr<InteractiveRuntime>(std::move(runtime));
}

GenerationService::GenerationService() : GenerationService(Options()) {}

GenerationService::GenerationService(Options opts)
    : cache_capacity_(opts.cache_capacity),
      max_pending_jobs_(opts.max_pending_jobs),
      job_history_capacity_(std::max<size_t>(1, opts.job_history_capacity)),
      experience_(std::move(opts.experience)),
      pool_(std::max<size_t>(1, opts.num_threads)) {}

GenerationService::~GenerationService() = default;

std::shared_ptr<const GeneratedInterface> GenerationService::CacheLookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
  ++cache_hits_;
  ServiceMetrics::Get().jobs_cache_hits->Inc();
  return it->second->second;
}

void GenerationService::CacheStore(uint64_t key,
                                   std::shared_ptr<const GeneratedInterface> value) {
  if (cache_capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;  // someone else finished the same job first
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  while (lru_.size() > cache_capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Tracked job protocol.

GenerationService::JobInfo GenerationService::SnapshotLocked(
    JobId id, const JobRecord& rec) const {
  JobInfo info;
  info.id = id;
  info.state = rec.state;
  info.cache_hit = rec.cache_hit;
  const auto now = Clock::now();
  const auto queue_end = rec.state == JobState::kQueued ? now : rec.started;
  info.queued_ms = MsBetween(rec.submitted, queue_end);
  if (rec.state == JobState::kRunning) {
    info.run_ms = MsBetween(rec.started, now);
  } else if (rec.state != JobState::kQueued) {
    // Terminal. Queued-phase cancels have started == finished, i.e. 0.
    info.run_ms = rec.cache_hit ? 0 : MsBetween(rec.started, rec.finished);
  }
  info.result = rec.result;
  info.error = rec.error;
  info.trace = rec.trace;
  info.options = rec.options;
  info.workload = rec.workload;
  info.progress = rec.progress->Latest();
  return info;
}

void GenerationService::FinishLocked(JobId id, JobRecord* rec, JobState state,
                                     std::shared_ptr<const GeneratedInterface> result,
                                     Status error) {
  rec->state = state;
  rec->result = std::move(result);
  rec->error = std::move(error);
  rec->finished = Clock::now();
  if (rec->started == Clock::time_point()) rec->started = rec->finished;
  finished_order_.push_back(id);
  while (finished_order_.size() > job_history_capacity_) {
    jobs_.erase(finished_order_.front());
    finished_order_.pop_front();
    ServiceMetrics::Get().jobs_evicted->Inc();
  }
  // Terminal => the progress stream is complete: wakes the job's waiters.
  // (The newest finished record is never the one evicted above.)
  rec->progress->Close();
}

Result<GenerationService::JobId> GenerationService::SubmitJob(JobSpec spec,
                                                              std::string workload) {
  const uint64_t key = JobKey(spec);
  // The record keeps the options as submitted; the run's wiring is its own.
  GeneratorOptions submitted = spec.options;
  submitted.search.stop = nullptr;
  submitted.search.progress = nullptr;
  submitted.search.warm_start = nullptr;
  submitted.shared_delta_cache = nullptr;
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++jobs_submitted_;
    ServiceMetrics::Get().jobs_submitted->Inc();
    if (max_pending_jobs_ != 0 && jobs_pending_ >= max_pending_jobs_) {
      ServiceMetrics::Get().jobs_rejected->Inc();
      return Status::ResourceExhausted(
          "generation queue full: " + std::to_string(jobs_pending_) +
          " jobs pending (limit " + std::to_string(max_pending_jobs_) + ")");
    }
    id = next_job_id_++;
    JobRecord& rec = jobs_[id];
    rec.submitted = Clock::now();
    rec.options = std::move(submitted);
    rec.workload = std::move(workload);
    rec.progress = std::make_shared<ProgressSink>();
    rec.stop = std::make_shared<StopHandle>();
    ++jobs_pending_;
    ServiceMetrics::Get().jobs_pending->Set(static_cast<double>(jobs_pending_));
  }

  if (auto cached = CacheLookup(key)) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    // Re-check under the lock: CancelJob may have raced in between (job
    // ids are sequential, so a concurrent cancel of this id is possible)
    // and already finished the record + adjusted jobs_pending_.
    if (it != jobs_.end() && it->second.state == JobState::kQueued) {
      it->second.cache_hit = true;
      --jobs_pending_;
      ServiceMetrics::Get().jobs_pending->Set(static_cast<double>(jobs_pending_));
      FinishLocked(id, &it->second, JobState::kDone, std::move(cached), Status::OK());
    }
    return id;
  }

  pool_.Submit([this, id, key, spec = std::move(spec)]() mutable {
    std::shared_ptr<ProgressSink> progress;
    std::shared_ptr<StopHandle> stop;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second.state != JobState::kQueued) {
        return;  // cancelled while queued (or evicted)
      }
      it->second.state = JobState::kRunning;
      it->second.started = Clock::now();
      progress = it->second.progress;
      stop = it->second.stop;
      ServiceMetrics::Get().queued_us->Observe(static_cast<double>(
          MsBetween(it->second.submitted, it->second.started) * 1000));
    }
    // Live wiring: best-so-far improvements stream into the job's sink, and
    // CancelJob can now abort the running search through the stop handle.
    // Wired AFTER JobKey was computed, so cache keys stay value-only.
    spec.options.search.progress = progress;
    spec.options.search.stop = stop;
    // Warm start: seed the search from the experience store and harvest its
    // discoveries back afterwards. Runtime wiring like progress/stop — the
    // experience flag turns on state-keyed sampling, under which seeded
    // entries change only the work done, never the values produced, so the
    // bridge stays outside every cache key.
    const bool experience = spec.options.experience && experience_ != nullptr;
    std::shared_ptr<WarmStart> warm;
    uint64_t store_key = 0;
    if (experience) {
      store_key = TtStoreKey(spec);
      warm = std::make_shared<WarmStart>();
      spec.options.search.warm_start = warm;
      const std::vector<learn::ExperienceRecord> snap =
          experience_->Snapshot(store_key, kExperienceSeedLimit);
      warm->experience_seed.reserve(snap.size());
      for (const learn::ExperienceRecord& rec : snap) {
        warm->experience_seed.push_back({rec.canonical, rec.best_cost, rec.visits});
      }
      if (!warm->experience_seed.empty()) {
        learn::learn_internal::SeededMetric().Add(warm->experience_seed.size());
        std::lock_guard<std::mutex> lock(mu_);
        learn_seeded_ += warm->experience_seed.size();
      }
      // Same-identity experience jobs also share one delta-cost cache, so a
      // warm start skips subtree/plan recomputes too (bit-safe: delta terms
      // are pure functions of their keys; see cost/delta.h).
      if (spec.options.delta_cost_eval) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = delta_stores_.find(store_key);
        if (it == delta_stores_.end()) {
          while (delta_stores_.size() >= kSharedDeltaStoreCapacity &&
                 !delta_store_order_.empty()) {
            delta_stores_.erase(delta_store_order_.front());
            delta_store_order_.pop_front();
          }
          it = delta_stores_
                   .emplace(store_key,
                            std::make_shared<DeltaCostCache>(/*enabled=*/true))
                   .first;
          delta_store_order_.push_back(store_key);
        }
        spec.options.shared_delta_cache = it->second;
      }
    }
    // With tracing on, every span the generation emits on this thread is
    // also captured into a job-private recorder, served later through
    // JobInfo::trace (GET /v1/jobs/{id}/trace).
    std::shared_ptr<obs::TraceRecorder> job_trace;
    if (obs::TracingEnabled()) {
      job_trace = std::make_shared<obs::TraceRecorder>();
    }
    const Clock::time_point run_start = Clock::now();
    Result<GeneratedInterface> result = [&] {
      obs::ScopedTraceSink sink(job_trace.get());
      obs::TraceSpan span("service.job", "service");
      return GenerateInterface(spec.sqls, spec.options);
    }();
    ServiceMetrics::Get().run_us->Observe(
        static_cast<double>(MsBetween(run_start, Clock::now()) * 1000));
    if (experience) {
      // Harvest: one record for the root carrying the preferred action (the
      // training signal the prior fitter and future warm starts consume),
      // then every state the run discovered. Like every record, the root's
      // carries the state's own sampled cost; it goes first because the
      // export may hold the root at the same cost, and an equal-cost merge
      // keeps the action already stored.
      const uint64_t epoch = experience_->epoch();
      size_t recorded = 0;
      if (result.ok() && !warm->root_actions.empty()) {
        const RootActionStat& best = warm->root_actions.front();
        experience_->Record({store_key, warm->root_canonical, best.canonical,
                             result->stats.initial_cost,
                             std::max<uint64_t>(1, best.visits), epoch});
        ++recorded;
      }
      for (const TtSeedEntry& e : warm->exported) {
        experience_->Record({store_key, e.canonical, 0, e.cost, e.visits, epoch});
        ++recorded;
      }
      std::lock_guard<std::mutex> lock(mu_);
      learn_recorded_ += recorded;
    }
    // An abort via CancelJob leaves the stop handle latched with kCancelled;
    // the generation still returned its best-so-far partial interface, which
    // the cancelled record keeps — but must never enter the result cache.
    const bool cancelled = stop->reason() == StopReason::kCancelled;
    std::shared_ptr<const GeneratedInterface> shared;
    if (result.ok()) {
      shared = std::make_shared<const GeneratedInterface>(std::move(*result));
      if (!cancelled) CacheStore(key, shared);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++jobs_executed_;
    --jobs_pending_;
    ServiceMetrics::Get().jobs_executed->Inc();
    ServiceMetrics::Get().jobs_pending->Set(static_cast<double>(jobs_pending_));
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.trace = job_trace;
      JobState final_state = result.ok() ? JobState::kDone : JobState::kFailed;
      Status final_error = result.ok() ? Status::OK() : result.status();
      if (cancelled) {
        final_state = JobState::kCancelled;
        final_error = Status::Cancelled("job cancelled while running");
      }
      FinishLocked(id, &it->second, final_state, std::move(shared),
                   std::move(final_error));
    }
  });
  return id;
}

Result<GenerationService::JobInfo> GenerationService::GetJob(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  return SnapshotLocked(id, it->second);
}

Result<GenerationService::JobInfo> GenerationService::WaitJob(
    JobId id, int64_t timeout_ms, uint64_t after_version) {
  std::shared_ptr<ProgressSink> progress;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("unknown job id " + std::to_string(id));
    }
    progress = it->second.progress;
  }
  // Outside mu_: FinishLocked closes the sink on every terminal transition.
  progress->WaitVersionAbove(after_version, timeout_ms);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("job id " + std::to_string(id) +
                            " evicted from history");
  }
  return SnapshotLocked(id, it->second);
}

Result<GenerationService::JobInfo> GenerationService::CancelJob(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown job id " + std::to_string(id));
  }
  if (it->second.state == JobState::kQueued) {
    --jobs_pending_;
    ServiceMetrics::Get().jobs_pending->Set(static_cast<double>(jobs_pending_));
    FinishLocked(id, &it->second, JobState::kCancelled, nullptr,
                 Status::Cancelled("job cancelled while queued"));
  } else if (it->second.state == JobState::kRunning) {
    // Flag the running search; it observes the relaxed-atomic stop within
    // its current iteration and the worker then finishes the job
    // as kCancelled with the best-so-far partial result. The snapshot
    // returned here may still say kRunning — WaitJob sees the transition.
    it->second.stop->RequestStop(StopReason::kCancelled);
  }
  return SnapshotLocked(id, it->second);
}

GenerationService::CountersSnapshot GenerationService::counters_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  CountersSnapshot s;
  s.jobs_submitted = jobs_submitted_;
  s.jobs_executed = jobs_executed_;
  s.jobs_pending = jobs_pending_;
  s.cache_hits = cache_hits_;
  s.sessions_opened = sessions_opened_;
  s.learn_seeded = learn_seeded_;
  s.learn_recorded = learn_recorded_;
  if (experience_ != nullptr) {
    s.learn_store_entries = experience_->size();
    s.learn_hits = experience_->hits();
    s.learn_misses = experience_->misses();
    s.learn_saves = experience_->saves();
    s.learn_loads = experience_->loads();
  }
  return s;
}

}  // namespace ifgen
