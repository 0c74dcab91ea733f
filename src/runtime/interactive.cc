#include "runtime/interactive.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "engine/exec_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ifgen {

namespace {

/// Memoized results retained per runtime (LRU; see docs/interactive.md).
constexpr size_t kResultCacheCapacity = 64;

/// Per-transition-class step counters + maintenance-path counters mirrored
/// onto the registry (the per-instance `Counters` struct stays authoritative
/// for session-scoped views).
obs::CounterFamily& StepsMetricFamily() {
  static obs::CounterFamily* f = obs::MetricsRegistry::Default().GetCounterFamily(
      "ifgen_runtime_steps_total",
      "Interactive runtime steps by transition class");
  return *f;
}
obs::Counter& RuntimePathMetric(const char* path) {
  static obs::CounterFamily* f = obs::MetricsRegistry::Default().GetCounterFamily(
      "ifgen_runtime_path_total",
      "Interactive runtime result-maintenance outcomes by path "
      "(noop, result_cache_hit, retruncate, delta_exec, full_exec, fallback)");
  return *f->WithLabels({{"path", path}});
}
obs::Histogram& StepLatencyMetric() {
  static obs::Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
      "ifgen_runtime_step_duration_us",
      "Latency of interactive runtime steps (microseconds)",
      obs::HistogramOptions{1.0, 2.0, 24});
  return *h;
}

/// Type-tagged, length-prefixed cell encoding: distinct Values never
/// collide ("1" the int vs "1" the string vs 1.0 the double).
void AppendCell(const Value& v, std::string* out) {
  if (v.is_null()) {
    *out += "n|";
  } else if (v.is_int()) {
    *out += "i" + std::to_string(v.AsInt()) + "|";
  } else if (v.is_double()) {
    *out += "d" + StrFormat("%.17g", v.AsDouble()) + "|";
  } else {
    const std::string& s = v.AsString();
    *out += "s" + std::to_string(s.size()) + ":" + s + "|";
  }
}

std::string RowFingerprint(const Table& t, size_t row) {
  std::string key;
  for (size_t c = 0; c < t.num_columns(); ++c) AppendCell(t.At(row, c), &key);
  return key;
}

std::string KeyFingerprint(const Table& t, size_t row,
                           const std::vector<size_t>& key_cols) {
  std::string key;
  for (size_t c : key_cols) AppendCell(t.At(row, c), &key);
  return key;
}

std::string FingerprintParams(const std::vector<Value>& params) {
  std::string fp;
  for (const Value& v : params) AppendCell(v, &fp);
  return fp;
}

std::vector<Value> RowOf(const Table& t, size_t row) {
  std::vector<Value> out;
  out.reserve(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) out.push_back(t.At(row, c));
  return out;
}

bool SameSchema(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().columns[c].name != b.schema().columns[c].name) return false;
  }
  return true;
}

/// Output columns usable as a stable row identity: the non-aggregate items
/// of an aggregate SELECT list (group keys are unique per result row).
/// Empty for non-aggregate queries — no stable identity, diffs are pure
/// adds/removes.
std::vector<size_t> GroupKeyCols(const Ast& shape) {
  const Ast* project = nullptr;
  for (const Ast& c : shape.children) {
    if (c.sym == Symbol::kProject) project = &c;
  }
  if (project == nullptr) return {};
  bool has_agg = false;
  for (const Ast& item : project->children) has_agg |= ContainsAggregate(item);
  if (!has_agg) return {};
  std::vector<size_t> keys;
  for (size_t i = 0; i < project->children.size(); ++i) {
    const Ast& item = project->children[i];
    if (!ContainsAggregate(item) && item.sym != Symbol::kStar) keys.push_back(i);
  }
  return keys;
}

}  // namespace

std::vector<InteractiveRuntime::RowChange> DiffTables(
    const Table& before, const Table& after, const std::vector<size_t>& key_cols) {
  using RowChange = InteractiveRuntime::RowChange;
  std::vector<RowChange> out;
  if (!SameSchema(before, after)) {
    // Different result shape: everything turned over.
    for (size_t r = 0; r < before.num_rows(); ++r) {
      out.push_back({RowChange::Kind::kRemove, RowOf(before, r), {}});
    }
    for (size_t r = 0; r < after.num_rows(); ++r) {
      out.push_back({RowChange::Kind::kAdd, RowOf(after, r), {}});
    }
    return out;
  }

  // Multiset diff: rows common to both sides cancel out. Before-row
  // fingerprints are computed once and reused by the removed pass.
  std::vector<std::string> before_keys;
  before_keys.reserve(before.num_rows());
  std::unordered_map<std::string, int64_t> counts;
  for (size_t r = 0; r < before.num_rows(); ++r) {
    before_keys.push_back(RowFingerprint(before, r));
    ++counts[before_keys.back()];
  }
  std::vector<size_t> added;
  for (size_t r = 0; r < after.num_rows(); ++r) {
    auto it = counts.find(RowFingerprint(after, r));
    if (it != counts.end() && it->second > 0) {
      --it->second;
    } else {
      added.push_back(r);
    }
  }
  std::vector<size_t> removed;
  for (size_t r = 0; r < before.num_rows(); ++r) {
    auto it = counts.find(before_keys[r]);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      removed.push_back(r);
    }
  }

  // Pair removed/added rows sharing a group key into updates. Keys are
  // unique per result for real GROUP BY outputs; duplicate keys (defensive)
  // fall back to add/remove.
  std::vector<uint8_t> removed_used(removed.size(), 0);
  std::unordered_map<std::string, int> removed_by_key;
  bool use_keys = !key_cols.empty();
  if (use_keys) {
    for (size_t i = 0; i < removed.size(); ++i) {
      std::string k = KeyFingerprint(before, removed[i], key_cols);
      auto [it, inserted] = removed_by_key.emplace(k, static_cast<int>(i));
      if (!inserted) it->second = -1;  // ambiguous key
    }
  }
  std::vector<RowChange> adds_and_updates;
  for (size_t r : added) {
    if (use_keys) {
      auto it = removed_by_key.find(KeyFingerprint(after, r, key_cols));
      if (it != removed_by_key.end() && it->second >= 0 &&
          !removed_used[static_cast<size_t>(it->second)]) {
        size_t ri = static_cast<size_t>(it->second);
        removed_used[ri] = 1;
        adds_and_updates.push_back({RowChange::Kind::kUpdate, RowOf(after, r),
                                    RowOf(before, removed[ri])});
        continue;
      }
    }
    adds_and_updates.push_back({RowChange::Kind::kAdd, RowOf(after, r), {}});
  }
  for (size_t i = 0; i < removed.size(); ++i) {
    if (!removed_used[i]) {
      out.push_back({RowChange::Kind::kRemove, RowOf(before, removed[i]), {}});
    }
  }
  out.insert(out.end(), std::make_move_iterator(adds_and_updates.begin()),
             std::make_move_iterator(adds_and_updates.end()));
  return out;
}

// ---------------------------------------------------------------------------

InteractiveRuntime::InteractiveRuntime(InterfaceSession session,
                                       std::shared_ptr<ExecutionBackend> backend,
                                       Options opts)
    : session_(std::make_unique<InterfaceSession>(std::move(session))),
      backend_(std::move(backend)),
      opts_(opts) {}

Result<std::unique_ptr<InteractiveRuntime>> InteractiveRuntime::Create(
    const GeneratedInterface& iface, const CostConstants& constants,
    std::shared_ptr<ExecutionBackend> backend, Options opts) {
  if (backend == nullptr) return Status::Invalid("InteractiveRuntime: null backend");
  IFGEN_ASSIGN_OR_RETURN(InterfaceSession session,
                         InterfaceSession::Create(iface, constants));
  std::unique_ptr<InteractiveRuntime> rt(
      new InteractiveRuntime(std::move(session), std::move(backend), opts));
  {
    std::lock_guard<std::mutex> lock(rt->mu_);
    IFGEN_RETURN_NOT_OK(rt->StepLocked({}, nullptr).status());
    // The initial execution primes prev state and version 1; counters track
    // *interactions*, so they restart at zero. The feed starts here.
    rt->counters_ = Counters{};
    rt->feed_version_ = rt->version_;
    rt->feed_snapshot_ = rt->prev_result_->served;
  }
  return rt;
}

Result<InteractiveRuntime::StepReport> InteractiveRuntime::LoadQuery(
    const Ast& query, ChangeBatch* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  IFGEN_ASSIGN_OR_RETURN(InterfaceSession::StepReport effort,
                         session_->LoadQuery(query));
  return StepLocked(effort, batch);
}

Result<InteractiveRuntime::StepReport> InteractiveRuntime::SetAnyChoice(
    int choice_id, int option_index, ChangeBatch* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  IFGEN_RETURN_NOT_OK(session_->SetAnyChoice(choice_id, option_index));
  return StepLocked(session_->PriceChange({choice_id}), batch);
}

Result<InteractiveRuntime::StepReport> InteractiveRuntime::SetOptPresent(
    int choice_id, bool present, ChangeBatch* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  IFGEN_RETURN_NOT_OK(session_->SetOptPresent(choice_id, present));
  return StepLocked(session_->PriceChange({choice_id}), batch);
}

Result<InteractiveRuntime::StepReport> InteractiveRuntime::SetMultiCount(
    int choice_id, size_t count, ChangeBatch* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  IFGEN_RETURN_NOT_OK(session_->SetMultiCount(choice_id, count));
  return StepLocked(session_->PriceChange({choice_id}), batch);
}

Result<InteractiveRuntime::StepReport> InteractiveRuntime::StepLocked(
    const InterfaceSession::StepReport& effort, ChangeBatch* batch) {
  obs::TraceSpan span("runtime.step", "runtime");
  Stopwatch step_watch;
  // Create()'s priming execution (version_ 0) resets the per-instance
  // counters afterward; keep the registry in lockstep by not counting it
  // either — both views track *interactions*.
  const bool priming = version_ == 0;
  auto bump_path = [priming](const char* path) {
    if (!priming) RuntimePathMetric(path).Inc();
  };
  StepReport report;
  report.widgets_changed = effort.widgets_changed;
  report.interaction_cost = effort.interaction_cost;
  report.navigation_cost = effort.navigation_cost;

  IFGEN_ASSIGN_OR_RETURN(Ast query, session_->CurrentQuery());
  IFGEN_ASSIGN_OR_RETURN(ParameterizedQuery pq, ParameterizeQuery(query));

  bool same_shape = !prev_key_.empty() && pq.key == prev_key_;
  ShapeDeltaInfo info = same_shape ? prev_info_ : AnalyzeShape(pq);
  TransitionClass cls = TransitionClass::kShapeChange;
  if (same_shape && prev_result_ != nullptr) {
    cls = ClassifyParamDelta(info, prev_params_, pq.params);
  }
  report.transition = cls;

  const std::string memo_key = pq.key + "\x1f" + FingerprintParams(pq.params);
  CachedResultPtr out;
  if (opts_.enable_delta) {
    if (cls == TransitionClass::kNoop) {
      out = prev_result_;
      report.incremental = true;
      ++counters_.noops;
      bump_path("noop");
    }
    if (out == nullptr) {
      out = MemoLookup(memo_key);
      if (out != nullptr) {
        report.incremental = true;
        report.from_cache = true;
        ++counters_.cache_hits;
        bump_path("result_cache_hit");
      }
    }
    if (out == nullptr && cls == TransitionClass::kLimitOnly &&
        prev_result_->delta_state()) {
      auto limit = ResolveLimitParams(info, pq.params);
      if (limit.ok()) {
        // Shares the retained pre-truncation table and selection; only the
        // truncated view (if the cap cuts) is materialized.
        out = MakeCachedShared(prev_result_->full, *limit, prev_result_->selection);
        report.incremental = true;
        ++counters_.retruncates;
        bump_path("retruncate");
      }
    }
    if (out == nullptr &&
        (cls == TransitionClass::kTighten || cls == TransitionClass::kLoosen) &&
        prev_result_->delta_state()) {
      auto prepared = backend_->PrepareShape(pq);
      if (prepared.ok()) {
        if (auto* dc = dynamic_cast<DeltaCapablePlan*>(*prepared)) {
          DeltaHint hint;
          hint.mode = cls == TransitionClass::kTighten ? DeltaHint::Mode::kTighten
                                                       : DeltaHint::Mode::kLoosen;
          hint.prior_selection = prev_result_->selection.get();
          IFGEN_ASSIGN_OR_RETURN(
              DeltaResult dr,
              backend_->RunExecution([&] { return dc->ExecuteDelta(pq.params, &hint); }));
          out = MakeCached(std::move(dr));
          report.incremental = true;
          ++counters_.delta_execs;
          bump_path("delta_exec");
        }
      }
    }
    if (out == nullptr) {
      IFGEN_ASSIGN_OR_RETURN(out, ExecuteFull(pq));
      ++counters_.full_execs;
      ++counters_.fallbacks;
      bump_path("full_exec");
      bump_path("fallback");
    }
  } else {
    IFGEN_ASSIGN_OR_RETURN(out, ExecuteFull(pq));
    ++counters_.full_execs;
    bump_path("full_exec");
  }

  // Row-level delta against the previous served result: the report counts
  // it and `batch` receives it. Pointer-equal results (noops, immediate
  // memo revisits) are identical by construction — skip the O(rows) diff.
  std::vector<size_t> key_cols =
      same_shape ? prev_group_key_cols_ : GroupKeyCols(pq.shape);
  std::vector<RowChange> changes;
  report.rows = out->served->num_rows();
  if (prev_result_ == nullptr) {
    report.rows_added = out->served->num_rows();
  } else if (out->served != prev_result_->served) {
    changes = DiffTables(*prev_result_->served, *out->served, key_cols);
    for (const RowChange& c : changes) {
      switch (c.kind) {
        case RowChange::Kind::kAdd:
          ++report.rows_added;
          break;
        case RowChange::Kind::kRemove:
          ++report.rows_removed;
          break;
        case RowChange::Kind::kUpdate:
          ++report.rows_updated;
          break;
      }
    }
  }

  if (opts_.enable_delta) MemoStore(memo_key, out);
  prev_key_ = std::move(pq.key);
  prev_params_ = std::move(pq.params);
  prev_info_ = std::move(info);
  prev_group_key_cols_ = std::move(key_cols);
  prev_result_ = std::move(out);
  ++version_;
  version_cv_.notify_all();
  ++counters_.steps;
  if (!priming) {
    StepsMetricFamily()
        .WithLabels({{"transition", std::string(TransitionClassName(cls))}})
        ->Inc();
    StepLatencyMetric().Observe(static_cast<double>(step_watch.ElapsedMicros()));
  }
  last_report_ = report;
  // A feed that was caught up before this step is now exactly this step
  // behind, and its snapshot is the result this step diffed against, so
  // its next poll can take this diff instead of recomputing it.
  if (feed_version_ == version_ - 1) {
    feed_changes_ = batch != nullptr ? changes : std::move(changes);
  } else {
    feed_changes_.clear();
  }
  if (batch != nullptr) {
    batch->from_version = version_ - 1;
    batch->to_version = version_;
    batch->changes = std::move(changes);
    batch->last_step = report;
  }
  return report;
}

InteractiveRuntime::CachedResultPtr InteractiveRuntime::MakeCached(DeltaResult dr) {
  return MakeCachedShared(
      std::make_shared<const Table>(std::move(dr.full)), dr.limit,
      std::make_shared<const std::vector<uint32_t>>(std::move(dr.selection)));
}

InteractiveRuntime::CachedResultPtr InteractiveRuntime::MakeCachedShared(
    std::shared_ptr<const Table> full, int64_t limit,
    std::shared_ptr<const std::vector<uint32_t>> selection) {
  auto cr = std::make_shared<CachedResult>();
  cr->limit = limit;
  cr->selection = std::move(selection);
  if (limit >= 0 && static_cast<size_t>(limit) < full->num_rows()) {
    Table t = *full;
    TruncateRows(&t, limit);
    cr->served = std::make_shared<const Table>(std::move(t));
  } else {
    cr->served = full;
  }
  cr->full = std::move(full);
  return cr;
}

Result<InteractiveRuntime::CachedResultPtr> InteractiveRuntime::ExecuteFull(
    const ParameterizedQuery& pq) {
  IFGEN_ASSIGN_OR_RETURN(PreparedQuery * plan, backend_->PrepareShape(pq));
  DeltaCapablePlan* dc =
      opts_.enable_delta ? dynamic_cast<DeltaCapablePlan*>(plan) : nullptr;
  if (dc != nullptr) {
    IFGEN_ASSIGN_OR_RETURN(
        DeltaResult dr,
        backend_->RunExecution([&] { return dc->ExecuteDelta(pq.params, nullptr); }));
    return MakeCached(std::move(dr));
  }
  auto cr = std::make_shared<CachedResult>();
  IFGEN_ASSIGN_OR_RETURN(Table served,
                         backend_->RunExecution([&] { return plan->Execute(pq.params); }));
  cr->served = std::make_shared<const Table>(std::move(served));
  cr->full = cr->served;
  return CachedResultPtr(std::move(cr));
}

InteractiveRuntime::CachedResultPtr InteractiveRuntime::MemoLookup(
    const std::string& key) {
  auto it = memo_.find(key);
  if (it == memo_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

void InteractiveRuntime::MemoStore(const std::string& key, CachedResultPtr value) {
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = std::move(value);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  memo_[key] = lru_.begin();
  while (lru_.size() > kResultCacheCapacity) {
    memo_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// State + change feed.

Result<Table> InteractiveRuntime::CurrentResult() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (prev_result_ == nullptr) return Status::Invalid("no result yet");
  return *prev_result_->served;
}

Result<std::string> InteractiveRuntime::CurrentSql() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_->CurrentSql();
}

Result<Ast> InteractiveRuntime::CurrentQuery() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_->CurrentQuery();
}

uint64_t InteractiveRuntime::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

uint64_t InteractiveRuntime::WaitForVersionExceeding(uint64_t last_seen,
                                                     int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_ms > 0) {
    version_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                         [&] { return version_ > last_seen; });
  }
  return version_;
}

InteractiveRuntime::Counters InteractiveRuntime::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

InteractiveRuntime::ChangeBatch InteractiveRuntime::PollFeed() {
  std::lock_guard<std::mutex> lock(mu_);
  ChangeBatch batch;
  batch.from_version = feed_version_;
  batch.to_version = version_;
  batch.last_step = last_report_;
  if (feed_snapshot_ != prev_result_->served) {  // pointer-equal => no diff
    batch.changes = version_ == feed_version_ + 1
                        ? std::move(feed_changes_)
                        : DiffTables(*feed_snapshot_, *prev_result_->served,
                                     prev_group_key_cols_);
    feed_snapshot_ = prev_result_->served;
  }
  feed_changes_.clear();
  feed_version_ = version_;
  return batch;
}

}  // namespace ifgen
