#include "api/api_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/json_export.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace ifgen {
namespace api {

namespace {

void FoldCounters(const InteractiveRuntime::Counters& from,
                  InteractiveRuntime::Counters* into) {
  into->steps += from.steps;
  into->noops += from.noops;
  into->cache_hits += from.cache_hits;
  into->delta_execs += from.delta_execs;
  into->retruncates += from.retruncates;
  into->full_execs += from.full_execs;
  into->fallbacks += from.fallbacks;
}

obs::Counter& SessionsExpiredMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_sessions_expired_total",
      "Sessions evicted by TTL or the capacity bound");
  return *c;
}
obs::Gauge& SessionsActiveMetric() {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "ifgen_sessions_active", "Open interactive sessions");
  return *g;
}

std::string WireJobId(GenerationService::JobId id) { return "j-" + std::to_string(id); }

/// The wire form of a job's result; its workload and backend come from the
/// job's record.
GenerateResponse BuildGenerateResponse(const GenerationService::JobInfo& info) {
  const GeneratedInterface& iface = *info.result;
  GenerateResponse g;
  g.job_id = WireJobId(info.id);
  g.workload = info.workload;
  g.algorithm = iface.algorithm;
  g.backend = std::string(BackendKindName(info.options.backend));
  g.coverage = iface.coverage;
  g.cost = CostToJsonValue(iface.cost);
  g.difftree = DiffTreeToJsonValue(iface.difftree);
  g.widgets = WidgetTreeToJsonValue(iface.widgets);
  g.stats = SearchStatsDto::FromStats(iface.stats);
  return g;
}

JobStatusResponse BuildJobStatus(const GenerationService::JobInfo& info) {
  JobStatusResponse resp;
  resp.job_id = WireJobId(info.id);
  resp.state = std::string(JobStateName(info.state));
  resp.cache_hit = info.cache_hit;
  resp.queued_ms = info.queued_ms;
  resp.run_ms = info.run_ms;
  // kDone carries the full result; kCancelled may carry the best-so-far
  // partial of a mid-run abort. The error (Cancelled/Failed) is reported
  // alongside the partial, not instead of it.
  if (info.result != nullptr &&
      (info.state == JobState::kDone || info.state == JobState::kCancelled)) {
    resp.result.value = BuildGenerateResponse(info);
  }
  if (!info.error.ok()) {
    resp.result.error = ErrorBody::FromStatus(info.error);
  }
  return resp;
}

}  // namespace

ApiService::ApiService(Options opts) : opts_(opts), service_(opts.service) {}

Result<std::unique_ptr<ApiService>> ApiService::Create(Options opts) {
  std::unique_ptr<ApiService> svc(new ApiService(opts));
  IFGEN_RETURN_NOT_OK(svc->LoadWorkloads());
  return svc;
}

Status ApiService::LoadWorkloads() {
  for (const std::string& name : WorkloadNames()) {
    auto bundle = LoadWorkload(name, opts_.workload_rows);
    if (!bundle.ok()) return bundle.status();
    workloads_[name] =
        std::make_unique<WorkloadBundle>(std::move(bundle).MoveValueUnsafe());
  }
  if (workloads_.empty()) return Status::Internal("no workloads registered");
  return Status::OK();
}

Result<GenerationService::JobId> ApiService::ParseJobId(
    const std::string& job_id) const {
  if (job_id.size() < 3 || job_id.compare(0, 2, "j-") != 0) {
    return Status::Invalid("malformed job id '" + job_id + "' (expected j-<n>)");
  }
  uint64_t id = 0;
  for (size_t i = 2; i < job_id.size(); ++i) {
    char c = job_id[i];
    if (c < '0' || c > '9') {
      return Status::Invalid("malformed job id '" + job_id + "' (expected j-<n>)");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    // Overflow guard: a wrapped id would alias a *different* job.
    if (id > (UINT64_MAX - digit) / 10) {
      return Status::Invalid("malformed job id '" + job_id + "' (out of range)");
    }
    id = id * 10 + digit;
  }
  return id;
}

Result<const WorkloadBundle*> ApiService::FindWorkload(
    const std::string& name) const {
  auto it = workloads_.find(name);
  if (it == workloads_.end()) {
    return Status::NotFound("unknown workload '" + name + "'");
  }
  return const_cast<const WorkloadBundle*>(it->second.get());
}

// ---------------------------------------------------------------------------
// Jobs.

Result<GenerateAccepted> ApiService::SubmitGenerate(const GenerateRequest& req) {
  IFGEN_ASSIGN_OR_RETURN(GeneratorOptions options, req.options.ToGeneratorOptions());
  if (!opts_.learned_prior_weights.empty()) {
    options.search.priors.learned_weights = opts_.learned_prior_weights;
  }
  if (!BackendAvailable(options.backend)) {
    return Status::Invalid("backend '" + req.options.backend +
                           "' is not compiled into this build");
  }
  if (req.workload.empty() && req.sqls.empty()) {
    return Status::Invalid("GenerateRequest: either 'workload' or 'sqls' required");
  }
  const WorkloadBundle* bundle = nullptr;
  if (!req.workload.empty()) {
    IFGEN_ASSIGN_OR_RETURN(bundle, FindWorkload(req.workload));
  }
  JobSpec spec{req.sqls.empty() ? bundle->log : req.sqls, std::move(options)};
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id,
                         service_.SubmitJob(std::move(spec), req.workload));
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info, service_.GetJob(id));
  GenerateAccepted accepted;
  accepted.job_id = WireJobId(id);
  accepted.state = std::string(JobStateName(info.state));
  return accepted;
}

Result<JobStatusResponse> ApiService::GetJob(const std::string& job_id,
                                             int64_t wait_ms) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id, ParseJobId(job_id));
  // wait_ms <= 0 answers at once; WaitJob would read a negative wait as
  // "no deadline".
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info,
                         service_.WaitJob(id, std::max<int64_t>(0, wait_ms)));
  return BuildJobStatus(info);
}

Result<JobStatusResponse> ApiService::CancelJob(const std::string& job_id) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id, ParseJobId(job_id));
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info, service_.CancelJob(id));
  return BuildJobStatus(info);
}

Result<JobProgressResponse> ApiService::GetJobProgress(const std::string& job_id,
                                                       int64_t last_seen_version,
                                                       int64_t wait_ms) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id, ParseJobId(job_id));
  const uint64_t last_seen =
      last_seen_version > 0 ? static_cast<uint64_t>(last_seen_version) : 0;
  // One snapshot per frame, mid-run or terminal.
  IFGEN_ASSIGN_OR_RETURN(
      GenerationService::JobInfo info,
      service_.WaitJob(id, std::max<int64_t>(0, wait_ms), last_seen));
  const ProgressSink::Event& p = info.progress;
  JobProgressResponse resp;
  resp.job_id = WireJobId(id);
  resp.state = std::string(JobStateName(info.state));
  resp.version = static_cast<int64_t>(p.version);
  resp.final_frame = info.terminal();
  if (resp.final_frame) {
    // Terminal frame: embed the finished (or cancelled-partial) result and
    // any failure — as in GetJob — so a stream consumer never needs a
    // follow-up GetJob to learn how the job ended.
    if (info.result != nullptr) resp.result.value = BuildGenerateResponse(info);
    if (!info.error.ok()) resp.result.error = ErrorBody::FromStatus(info.error);
  } else if (p.tree != nullptr) {
    // Mid-run frame: the best-so-far difftree without the widget phase —
    // layout and the full cost decomposition only exist once search ends,
    // so the cost object carries just the scalar being minimized.
    GenerateResponse g;
    g.job_id = resp.job_id;
    g.workload = info.workload;
    g.algorithm = std::string(AlgorithmName(info.options.algorithm));
    g.backend = std::string(BackendKindName(info.options.backend));
    JsonValue cost = JsonValue::Object();
    cost.Set("total", JsonValue::Double(p.cost));
    g.cost = std::move(cost);
    g.difftree = DiffTreeToJsonValue(*p.tree);
    g.stats.iterations = static_cast<int64_t>(p.iteration);
    g.stats.elapsed_ms = p.ms;
    resp.result.value = std::move(g);
  }
  return resp;
}

Result<std::string> ApiService::JobTrace(const std::string& job_id) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id, ParseJobId(job_id));
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info, service_.GetJob(id));
  if (info.trace == nullptr) {
    return Status::NotFound("no trace captured for job " + job_id +
                            " (enable tracing before submitting, e.g. serve_http "
                            "--trace, and note cache hits skip execution)");
  }
  return info.trace->ToChromeTraceJson();
}

// ---------------------------------------------------------------------------
// Sessions.

void ApiService::SweepSessionsLocked() {
  if (opts_.session_ttl_ms <= 0) return;
  const auto now = Clock::now();
  // Runs on every session access (including 15 ms SSE re-polls), so bound
  // the O(sessions) scan: at most one sweep per ttl/10. Expiry is already
  // lazy, so a session lingering up to 1.1*ttl changes nothing observable.
  const auto interval =
      std::chrono::milliseconds(std::max<int64_t>(1, opts_.session_ttl_ms / 10));
  if (now - last_sweep_ < interval) return;
  last_sweep_ = now;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const int64_t idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                now - it->second.last_touch)
                                .count();
    if (idle_ms > opts_.session_ttl_ms) {
      FoldCounters(it->second.runtime->counters(), &retired_counters_);
      ++sessions_expired_;
      SessionsExpiredMetric().Inc();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  SessionsActiveMetric().Set(static_cast<double>(sessions_.size()));
}

Result<ApiService::SessionEntry*> ApiService::TouchSessionLocked(
    const std::string& session_id) {
  SweepSessionsLocked();
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session '" + session_id +
                            "' (expired or never opened)");
  }
  it->second.last_touch = Clock::now();
  return &it->second;
}

Result<SessionOpenResponse> ApiService::OpenSession(const SessionOpenRequest& req) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id, ParseJobId(req.job_id));
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info, service_.GetJob(id));
  if (info.state != JobState::kDone || info.result == nullptr) {
    return Status::Invalid("job " + req.job_id + " is not done (state: " +
                           std::string(JobStateName(info.state)) +
                           "); sessions require a finished job");
  }
  const std::string workload_name =
      !req.workload.empty() ? req.workload : info.workload;
  if (workload_name.empty()) {
    return Status::Invalid(
        "no workload: the job was submitted with raw sqls; pass 'workload' in "
        "SessionOpenRequest to pick the store to execute against");
  }
  IFGEN_ASSIGN_OR_RETURN(const WorkloadBundle* bundle, FindWorkload(workload_name));
  BackendKind kind = info.options.backend;
  if (!req.backend.empty()) {
    // Reuse the options validator for the name -> kind mapping.
    ApiOptions probe;
    probe.backend = req.backend;
    IFGEN_ASSIGN_OR_RETURN(GeneratorOptions parsed, probe.ToGeneratorOptions());
    kind = parsed.backend;
  }
  if (!BackendAvailable(kind)) {
    return Status::Invalid("backend '" + std::string(BackendKindName(kind)) +
                           "' is not compiled into this build");
  }
  IFGEN_ASSIGN_OR_RETURN(
      std::shared_ptr<InteractiveRuntime> runtime,
      service_.OpenSession(*info.result, info.options.constants, &bundle->db, kind,
                           opts_.runtime));

  // Nothing can step the runtime before the session is registered, so the
  // snapshot, the version and the feed's cursor all stand at Create's result.
  SessionOpenResponse resp;
  IFGEN_ASSIGN_OR_RETURN(Table snapshot, runtime->CurrentResult());
  SessionEntry entry;
  entry.runtime = runtime;
  entry.workload = workload_name;
  entry.last_touch = Clock::now();

  IFGEN_ASSIGN_OR_RETURN(std::string sql, runtime->CurrentSql());
  resp.sql = std::move(sql);
  resp.version = static_cast<int64_t>(runtime->version());
  resp.table = TableDto::FromTable(snapshot);
  resp.widgets = WidgetTreeToJsonValue(info.result->widgets);

  std::lock_guard<std::mutex> lock(mu_);
  SweepSessionsLocked();
  // Capacity eviction: drop the least-recently-touched session.
  while (sessions_.size() >= std::max<size_t>(1, opts_.max_sessions)) {
    auto lru = std::min_element(sessions_.begin(), sessions_.end(),
                                [](const auto& a, const auto& b) {
                                  return a.second.last_touch < b.second.last_touch;
                                });
    FoldCounters(lru->second.runtime->counters(), &retired_counters_);
    ++sessions_expired_;
    SessionsExpiredMetric().Inc();
    sessions_.erase(lru);
  }
  resp.session_id = "s-" + std::to_string(next_session_++);
  sessions_[resp.session_id] = std::move(entry);
  SessionsActiveMetric().Set(static_cast<double>(sessions_.size()));
  return resp;
}

Result<StepResponse> ApiService::ApplyEvent(const std::string& session_id,
                                            const WidgetEventRequest& event) {
  std::shared_ptr<InteractiveRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(mu_);
    IFGEN_ASSIGN_OR_RETURN(SessionEntry * entry, TouchSessionLocked(session_id));
    runtime = entry->runtime;
  }

  // Bounds-check before narrowing: a wire int64 outside int range must be
  // rejected, not wrapped onto a different (valid) widget id.
  constexpr int64_t kMaxId = std::numeric_limits<int>::max();
  if (event.kind != "load_query" &&
      (event.choice_id < 0 || event.choice_id > kMaxId)) {
    return Status::OutOfRange("choice_id " + std::to_string(event.choice_id) +
                              " outside [0, " + std::to_string(kMaxId) + "]");
  }
  if (event.kind == "set_any" &&
      (event.option_index < 0 || event.option_index > kMaxId)) {
    return Status::OutOfRange("option_index " + std::to_string(event.option_index) +
                              " outside [0, " + std::to_string(kMaxId) + "]");
  }
  // `count` sizes an allocation downstream, so it gets the tighter domain
  // cap (not just the int range): InterfaceSession::SetMultiCount enforces
  // the same bound as defense in depth.
  constexpr int64_t kMaxCount =
      static_cast<int64_t>(InterfaceSession::kMaxMultiCount);
  if (event.kind == "set_multi" &&
      (event.count < 0 || event.count > kMaxCount)) {
    return Status::OutOfRange("count " + std::to_string(event.count) +
                              " outside [0, " + std::to_string(kMaxCount) + "]");
  }

  // The step fills `batch` with its own diff under the runtime's lock, so
  // concurrent events on one session each get exactly their own step.
  InteractiveRuntime::ChangeBatch batch;
  Result<InteractiveRuntime::StepReport> report = Status::OK();
  const int choice = static_cast<int>(event.choice_id);
  if (event.kind == "set_any") {
    report = runtime->SetAnyChoice(choice, static_cast<int>(event.option_index), &batch);
  } else if (event.kind == "set_opt") {
    report = runtime->SetOptPresent(choice, event.present, &batch);
  } else if (event.kind == "set_multi") {
    report = runtime->SetMultiCount(choice, static_cast<size_t>(event.count), &batch);
  } else if (event.kind == "load_query") {
    IFGEN_ASSIGN_OR_RETURN(Ast query, ParseQuery(event.sql));
    report = runtime->LoadQuery(query, &batch);
  } else {
    return Status::Invalid("unknown event kind '" + event.kind + "'");
  }
  if (!report.ok()) return report.status();

  IFGEN_ASSIGN_OR_RETURN(std::string sql, runtime->CurrentSql());

  StepResponse resp;
  resp.session_id = session_id;
  resp.sql = std::move(sql);
  resp.version = static_cast<int64_t>(batch.to_version);
  resp.report = StepReportDto::FromReport(*report);
  resp.batch = ChangeBatchDto::FromBatch(batch);
  return resp;
}

Result<ChangeBatchDto> ApiService::PollSession(const std::string& session_id,
                                               int64_t wait_ms) {
  std::shared_ptr<InteractiveRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(mu_);
    IFGEN_ASSIGN_OR_RETURN(SessionEntry * entry, TouchSessionLocked(session_id));
    runtime = entry->runtime;
  }
  InteractiveRuntime::ChangeBatch batch = runtime->PollFeed();
  if (wait_ms > 0 && batch.to_version == batch.from_version) {
    // Nothing pending: park on the runtime's version condvar (no busy
    // polling) and re-drain whatever the wait uncovered — possibly still
    // nothing, which is the long-poll timeout answer.
    runtime->WaitForVersionExceeding(batch.to_version, wait_ms);
    batch = runtime->PollFeed();
  }
  return ChangeBatchDto::FromBatch(batch);
}

Result<TableDto> ApiService::SessionTable(const std::string& session_id) {
  std::shared_ptr<InteractiveRuntime> runtime;
  {
    std::lock_guard<std::mutex> lock(mu_);
    IFGEN_ASSIGN_OR_RETURN(SessionEntry * entry, TouchSessionLocked(session_id));
    runtime = entry->runtime;
  }
  IFGEN_ASSIGN_OR_RETURN(Table table, runtime->CurrentResult());
  return TableDto::FromTable(table);
}

Status ApiService::CloseSession(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown session '" + session_id + "'");
  }
  FoldCounters(it->second.runtime->counters(), &retired_counters_);
  sessions_.erase(it);
  SessionsActiveMetric().Set(static_cast<double>(sessions_.size()));
  return Status::OK();
}

size_t ApiService::sessions_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

// ---------------------------------------------------------------------------
// Introspection.

Result<CatalogResponse> ApiService::Catalog() {
  CatalogResponse resp;
  for (const auto& [name, bundle] : workloads_) {
    WorkloadInfo info;
    info.name = name;
    info.queries = static_cast<int64_t>(bundle->log.size());
    for (const TableSchema& schema : bundle->db.catalog().tables()) {
      TableInfo t;
      t.name = schema.name;
      t.columns = static_cast<int64_t>(schema.columns.size());
      auto table = bundle->db.GetTable(schema.name);
      t.rows = table.ok() ? static_cast<int64_t>((*table)->num_rows()) : 0;
      info.tables.push_back(std::move(t));
    }
    resp.workloads.push_back(std::move(info));
  }
  for (BackendKind kind : AvailableBackends()) {
    resp.backends.push_back(std::string(BackendKindName(kind)));
  }
  return resp;
}

Result<StatsResponse> ApiService::Stats() {
  StatsResponse s;
  // One locked snapshot instead of five separately-locked reads: the job
  // numbers in a single /v1/stats response are mutually consistent.
  const GenerationService::CountersSnapshot svc = service_.counters_snapshot();
  s.jobs_submitted = static_cast<int64_t>(svc.jobs_submitted);
  s.jobs_executed = static_cast<int64_t>(svc.jobs_executed);
  s.jobs_pending = static_cast<int64_t>(svc.jobs_pending);
  s.job_cache_hits = static_cast<int64_t>(svc.cache_hits);
  s.sessions_opened = static_cast<int64_t>(svc.sessions_opened);
  s.learn_store_entries = static_cast<int64_t>(svc.learn_store_entries);
  s.learn_hits = static_cast<int64_t>(svc.learn_hits);
  s.learn_misses = static_cast<int64_t>(svc.learn_misses);
  s.learn_seeded = static_cast<int64_t>(svc.learn_seeded);
  s.learn_recorded = static_cast<int64_t>(svc.learn_recorded);
  s.learn_saves = static_cast<int64_t>(svc.learn_saves);
  s.learn_loads = static_cast<int64_t>(svc.learn_loads);

  InteractiveRuntime::Counters agg;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.sessions_active = static_cast<int64_t>(sessions_.size());
    s.sessions_expired = static_cast<int64_t>(sessions_expired_);
    agg = retired_counters_;
    for (const auto& [id, entry] : sessions_) {
      FoldCounters(entry.runtime->counters(), &agg);
    }
  }
  s.steps = static_cast<int64_t>(agg.steps);
  s.noops = static_cast<int64_t>(agg.noops);
  s.result_cache_hits = static_cast<int64_t>(agg.cache_hits);
  s.delta_execs = static_cast<int64_t>(agg.delta_execs);
  s.retruncates = static_cast<int64_t>(agg.retruncates);
  s.full_execs = static_cast<int64_t>(agg.full_execs);
  s.fallbacks = static_cast<int64_t>(agg.fallbacks);

  // Backend pointer -> workload name, for readable stats rows.
  std::map<const Database*, std::string> names;
  for (const auto& [name, bundle] : workloads_) names[&bundle->db] = name;
  for (const GenerationService::BackendStatEntry& e : service_.backend_stats()) {
    BackendStatsDto dto;
    auto it = names.find(e.db);
    dto.workload = it != names.end() ? it->second : "?";
    dto.backend = std::string(BackendKindName(e.kind));
    dto.prepares = static_cast<int64_t>(e.stats.prepares);
    dto.plan_cache_hits = static_cast<int64_t>(e.stats.plan_cache_hits);
    dto.executions = static_cast<int64_t>(e.stats.executions);
    s.backends.push_back(std::move(dto));
  }
  return s;
}

Result<ClusterResponse> ApiService::Cluster() {
  ClusterResponse c;
  c.mode = "single";
  return c;
}

}  // namespace api
}  // namespace ifgen
