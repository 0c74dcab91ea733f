#pragma once

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/session.h"
#include "engine/backend.h"
#include "engine/delta_exec.h"

namespace ifgen {

/// \brief The incremental interactive runtime: an InterfaceSession plus
/// delta result maintenance and a change feed.
///
/// Every widget change w(q, u) -> q' goes through one pipeline: materialize
/// the new query, parameterize it (engine/backend.h), classify the
/// transition against the previously *executed* state
/// (engine/delta_exec.h), and maintain the previous result instead of
/// re-executing when a sound incremental path exists:
///
///  - `noop`        — identical (shape, params): the previous result stands.
///  - memo hit      — any class: a per-(shape, params) LRU of the last 64
///                    results answers revisited states (toggling back)
///                    outright.
///  - `tighten`     — delta-capable plans re-filter only the retained
///                    selection vector (columnar backend).
///  - `loosen`      — prior selection survives wholesale; only its
///                    complement is evaluated, then merged in row order.
///  - `limit_only`  — the retained pre-TOP/LIMIT table is re-truncated.
///  - `rebind` / `shape_change` — full execution through the backend's plan
///                    cache (rebind re-uses the compiled plan; shape change
///                    may compile).
///
/// Incremental results are bit-identical to full re-execution — enforced
/// differentially by tests/interactive_test.cc on randomized walks across
/// all backends. Backends whose plans are not delta-capable (reference,
/// SQLite) still get the noop/memo paths; everything else falls back to
/// full execution.
///
/// Each step diffs the new result against the previous one exactly once;
/// an interaction that passes a `ChangeBatch*` receives that diff as its
/// own batch. The runtime also keeps one change feed, a cursor drained by
/// `PollFeed` and shared by all of its pollers. All public methods are
/// serialized by an internal mutex, so the feed may be polled concurrently
/// with interactions, and a step and its batch are one atomic unit.
/// \brief Tuning knobs of an InteractiveRuntime (namespace-scope so it can
/// serve as an in-class default argument).
struct InteractiveOptions {
  /// Ablation flag: false forces full re-execution on every step (the
  /// differential baseline and the bench comparison arm).
  bool enable_delta = true;
};

class InteractiveRuntime {
 public:
  using Options = InteractiveOptions;

  /// Builds a runtime positioned at the interface's first query, with that
  /// query already executed (current_result() is valid on success).
  /// `backend` is shared (GenerationService::BackendFor hands out one per
  /// database × kind) and must outlive the runtime.
  static Result<std::unique_ptr<InteractiveRuntime>> Create(
      const GeneratedInterface& iface, const CostConstants& constants,
      std::shared_ptr<ExecutionBackend> backend, Options opts = {});

  /// \brief What one interaction step did: transition class, how the result
  /// was maintained, and the row-level delta against the previous result.
  struct StepReport {
    TransitionClass transition = TransitionClass::kShapeChange;
    bool incremental = false;  ///< served without a full pipeline execution
    bool from_cache = false;   ///< memoized result cache hit
    size_t widgets_changed = 0;
    double interaction_cost = 0.0;
    double navigation_cost = 0.0;
    size_t rows = 0;          ///< rows in the new current result
    size_t rows_added = 0;    ///< rows in new but not old (multiset)
    size_t rows_removed = 0;  ///< rows in old but not new (multiset)
    size_t rows_updated = 0;  ///< group-key matches with changed values
    double total_cost() const { return interaction_cost + navigation_cost; }
  };

  struct ChangeBatch;

  // ------------------------------------------------------------------
  // Interactions (each executes/maintains the result and bumps version).
  // A non-null `batch` receives the step's own diff: from the version
  // before the step to the one after, with `last_step` the returned report.
  // It is left untouched when the step fails.

  /// Moves the widgets to express `query` (min-change transition), then
  /// maintains the result.
  Result<StepReport> LoadQuery(const Ast& query, ChangeBatch* batch = nullptr);

  /// Widget manipulation by choice id — the w(q, u) -> q' interface.
  Result<StepReport> SetAnyChoice(int choice_id, int option_index,
                                  ChangeBatch* batch = nullptr);
  Result<StepReport> SetOptPresent(int choice_id, bool present,
                                   ChangeBatch* batch = nullptr);
  Result<StepReport> SetMultiCount(int choice_id, size_t count,
                                   ChangeBatch* batch = nullptr);

  // ------------------------------------------------------------------
  // State.

  /// Copy of the current result (thread-safe snapshot).
  Result<Table> CurrentResult() const;
  Result<std::string> CurrentSql() const;
  Result<Ast> CurrentQuery() const;

  /// The wrapped session. NOT synchronized with concurrent interactions —
  /// single-threaded inspection only (tests, benches).
  const InterfaceSession& session() const { return *session_; }

  /// Monotone result version; bumped on every step that changes which
  /// result is current (including steps whose result is value-identical).
  uint64_t version() const;

  /// Blocks until version() > `last_seen` or `timeout_ms` elapses, and
  /// returns the version at wake. The feed transport's long-poll primitive
  /// (mirrors GenerationService::WaitJob): a consumer parks here instead of
  /// polling on a sleep loop, and every successful step wakes all waiters.
  /// `timeout_ms` <= 0 is an immediate version read.
  uint64_t WaitForVersionExceeding(uint64_t last_seen, int64_t timeout_ms) const;

  // ------------------------------------------------------------------
  // Change feed.

  /// \brief One row-level change. Applying a batch to the receiver's last
  /// table — remove one row equal to `row` per kRemove, append `row` per
  /// kAdd, and per kUpdate remove one row equal to `old_row` then append
  /// `row` — reproduces the current result as a multiset (row order is not
  /// part of the contract; tests compare canonically sorted tables).
  struct RowChange {
    enum class Kind : uint8_t { kAdd, kRemove, kUpdate };
    Kind kind = Kind::kAdd;
    std::vector<Value> row;      ///< kAdd/kUpdate: the new row; kRemove: the removed row
    std::vector<Value> old_row;  ///< kUpdate only: the replaced row
  };

  /// \brief The diff from `from_version`'s result to `to_version`'s, plus
  /// the report of the step that produced `to_version`. A step's batch
  /// spans that one step; a feed poll spans every step since the last poll.
  struct ChangeBatch {
    uint64_t from_version = 0;
    uint64_t to_version = 0;
    std::vector<RowChange> changes;
    StepReport last_step;
  };

  /// Drains the feed: the changes since the previous PollFeed (the first
  /// poll starts from Create's result, version 1), with empty `changes` and
  /// from_version == to_version when nothing happened. The feed is one
  /// cursor, so concurrent pollers split the steps between them: each span
  /// is delivered to exactly one poller.
  ChangeBatch PollFeed();

  // ------------------------------------------------------------------
  // Introspection.

  struct Counters {
    size_t steps = 0;        ///< successful interaction steps
    size_t noops = 0;        ///< identical (shape, params): zero work
    size_t cache_hits = 0;   ///< memoized result served
    size_t delta_execs = 0;  ///< tighten/loosen selection-delta executions
    size_t retruncates = 0;  ///< limit-only: retained table re-truncated
    size_t full_execs = 0;   ///< full pipeline executions
    size_t fallbacks = 0;    ///< full executions forced while delta enabled
  };
  Counters counters() const;

 private:
  /// One retained execution, shared immutably between the runtime's prev
  /// state, the memo, and the feed's snapshot. `served` aliases `full`
  /// whenever the limit does not actually cut rows, so the common no-limit
  /// case never copies the result table.
  struct CachedResult {
    std::shared_ptr<const Table> full;    ///< pre-TOP/LIMIT result
    std::shared_ptr<const Table> served;  ///< post-TOP/LIMIT (== full when uncut)
    int64_t limit = -1;
    /// Post-WHERE base-row selection; null when the plan was not
    /// delta-capable (no retained state to resume from).
    std::shared_ptr<const std::vector<uint32_t>> selection;
    bool delta_state() const { return selection != nullptr; }
  };
  using CachedResultPtr = std::shared_ptr<const CachedResult>;

  InteractiveRuntime(InterfaceSession session,
                     std::shared_ptr<ExecutionBackend> backend, Options opts);

  /// The shared tail of every interaction: (re)executes or maintains the
  /// result for the session's current query, reporting `effort` (the
  /// session's pricing of the step). Requires mu_ held.
  ///
  /// On error (e.g. the new widget state orders by a column the projection
  /// dropped) the result side of the runtime — CurrentResult, version, the
  /// feed, and the retained delta state — stays at the last *executed*
  /// step, while the session's widget state (CurrentSql) has already
  /// advanced; the next successful step re-synchronizes them.
  Result<StepReport> StepLocked(const InterfaceSession::StepReport& effort,
                                ChangeBatch* batch);

  static CachedResultPtr MakeCached(DeltaResult dr);
  /// The single owner of the served-aliases-full invariant: `served` copies
  /// and truncates only when `limit` actually cuts rows.
  static CachedResultPtr MakeCachedShared(
      std::shared_ptr<const Table> full, int64_t limit,
      std::shared_ptr<const std::vector<uint32_t>> selection);
  Result<CachedResultPtr> ExecuteFull(const ParameterizedQuery& pq);
  CachedResultPtr MemoLookup(const std::string& key);
  void MemoStore(const std::string& key, CachedResultPtr value);

  std::unique_ptr<InterfaceSession> session_;
  std::shared_ptr<ExecutionBackend> backend_;
  Options opts_;

  mutable std::mutex mu_;
  /// Signaled (all waiters) on every version_ bump.
  mutable std::condition_variable version_cv_;

  // Previously *executed* state (survives failed steps unchanged).
  std::string prev_key_;  ///< canonical shape SQL; empty = nothing executed
  std::vector<Value> prev_params_;
  ShapeDeltaInfo prev_info_;
  std::vector<size_t> prev_group_key_cols_;  ///< update-detection key columns
  CachedResultPtr prev_result_;

  // Memoized results, LRU: (shape key + param fingerprint) -> result.
  std::list<std::pair<std::string, CachedResultPtr>> lru_;
  std::unordered_map<
      std::string, std::list<std::pair<std::string, CachedResultPtr>>::iterator>
      memo_;

  // The feed's cursor: the version and result it last delivered. The
  // snapshot shares the immutable result table, it does not copy it.
  uint64_t feed_version_ = 0;
  std::shared_ptr<const Table> feed_snapshot_;
  /// The last step's diff, kept while the feed is exactly that step behind.
  std::vector<RowChange> feed_changes_;
  uint64_t version_ = 0;
  StepReport last_report_;

  Counters counters_;
};

/// Computes the row-level diff between two tables: multiset removes/adds,
/// with add/remove pairs sharing equal values in `key_cols` reported as a
/// single kUpdate (group-by keys are unique per result, so the pairing is
/// well defined). Pass empty `key_cols` for pure add/remove diffs. Exposed
/// for tests and the bench.
std::vector<InteractiveRuntime::RowChange> DiffTables(
    const Table& before, const Table& after, const std::vector<size_t>& key_cols);

}  // namespace ifgen
