// Differential/property harness for the incremental interactive runtime:
// randomized widget-interaction walks assert that incrementally maintained
// results are bit-identical to full re-execution on every step, across all
// compiled-in backends and all three workloads, and that change-feed diffs
// applied to the old table reproduce the new one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/interface_generator.h"
#include "core/session.h"
#include "difftree/selection.h"
#include "engine/delta_exec.h"
#include "runtime/interactive.h"
#include "runtime/service.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

GeneratedInterface MakeInterface(const std::vector<std::string>& sqls,
                                 size_t iterations = 25) {
  GeneratorOptions opt;
  opt.screen = {100, 40};
  opt.search.time_budget_ms = 0;  // iteration-capped: deterministic
  opt.search.max_iterations = iterations;
  opt.search.seed = 11;
  auto r = GenerateInterface(sqls, opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).MoveValueUnsafe();
}

/// Exact cell equality: same type class and same content. Stricter than
/// TablesEquivalent (no numeric tolerance, no canonical re-sort) — the
/// incremental paths promise *bit-identical* results on the same backend.
bool CellsIdentical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int() != b.is_int() || a.is_double() != b.is_double() ||
      a.is_string() != b.is_string()) {
    return false;
  }
  if (a.is_int()) return a.AsInt() == b.AsInt();
  if (a.is_double()) return a.AsDouble() == b.AsDouble();
  return a.AsString() == b.AsString();
}

::testing::AssertionResult TablesIdentical(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << a.num_columns() << " vs " << b.num_columns();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().columns[c].name != b.schema().columns[c].name) {
      return ::testing::AssertionFailure()
             << "column " << c << " name " << a.schema().columns[c].name << " vs "
             << b.schema().columns[c].name;
    }
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!CellsIdentical(a.At(r, c), b.At(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << "): " << a.At(r, c).ToString()
               << " vs " << b.At(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// One pre-generated interaction; validity is state-dependent, success is
/// deterministic given the same starting state and sequence.
struct WalkAction {
  enum class Kind : uint8_t { kAny, kOpt, kMulti, kLoad } kind = Kind::kLoad;
  int choice_id = 0;
  int arg = 0;      // option index / present / count
  size_t qidx = 0;  // kLoad
};

std::vector<WalkAction> MakeWalk(const DiffTree& tree, size_t num_queries,
                                 Rng* rng, size_t length) {
  ChoiceIndex index(tree);
  std::vector<WalkAction> walk;
  walk.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    WalkAction a;
    // ~1 in 4 steps replays a log query (shape changes + min-change
    // transitions); the rest are direct widget manipulations.
    if (index.size() == 0 || rng->UniformIndex(4) == 0) {
      a.kind = WalkAction::Kind::kLoad;
      a.qidx = rng->UniformIndex(num_queries);
      walk.push_back(a);
      continue;
    }
    a.choice_id = static_cast<int>(rng->UniformIndex(index.size()));
    const DiffTree* node = index.node(static_cast<size_t>(a.choice_id));
    switch (node->kind) {
      case DKind::kAny:
        a.kind = WalkAction::Kind::kAny;
        a.arg = static_cast<int>(rng->UniformIndex(node->children.size()));
        break;
      case DKind::kOpt:
        a.kind = WalkAction::Kind::kOpt;
        a.arg = rng->Bernoulli(0.5) ? 1 : 0;
        break;
      case DKind::kMulti:
        a.kind = WalkAction::Kind::kMulti;
        a.arg = static_cast<int>(rng->UniformIndex(3));
        break;
      case DKind::kAll:
        a.kind = WalkAction::Kind::kLoad;
        a.qidx = rng->UniformIndex(num_queries);
        break;
    }
    walk.push_back(a);
  }
  return walk;
}

Result<InteractiveRuntime::StepReport> ApplyAction(
    InteractiveRuntime* rt, const std::vector<Ast>& queries, const WalkAction& a,
    InteractiveRuntime::ChangeBatch* batch = nullptr) {
  switch (a.kind) {
    case WalkAction::Kind::kAny:
      return rt->SetAnyChoice(a.choice_id, a.arg, batch);
    case WalkAction::Kind::kOpt:
      return rt->SetOptPresent(a.choice_id, a.arg != 0, batch);
    case WalkAction::Kind::kMulti:
      return rt->SetMultiCount(a.choice_id, static_cast<size_t>(a.arg), batch);
    case WalkAction::Kind::kLoad:
      return rt->LoadQuery(queries[a.qidx], batch);
  }
  return Status::Invalid("bad action");
}

// ---------------------------------------------------------------------------
// Transition classification semantics (unit-level pins).

TEST(DeltaClassify, DirectionalPredicatesAndLimits) {
  Ast q = *ParseQuery("select a from t where a > 5 and s = 'x' limit 9");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_EQ(pq->params.size(), 3u);  // 5, 'x', 9
  ShapeDeltaInfo info = AnalyzeShape(*pq);
  ASSERT_EQ(info.roles.size(), 3u);
  EXPECT_EQ(info.roles[0], ShapeDeltaInfo::ParamRole::kLowerBound);
  EXPECT_EQ(info.roles[1], ShapeDeltaInfo::ParamRole::kOpaque);
  EXPECT_EQ(info.roles[2], ShapeDeltaInfo::ParamRole::kLimit);

  const std::vector<Value> base = pq->params;
  auto with = [&](size_t i, Value v) {
    std::vector<Value> p = base;
    p[i] = std::move(v);
    return p;
  };
  EXPECT_EQ(ClassifyParamDelta(info, base, base), TransitionClass::kNoop);
  EXPECT_EQ(ClassifyParamDelta(info, base, with(0, Value(int64_t{6}))),
            TransitionClass::kTighten);
  EXPECT_EQ(ClassifyParamDelta(info, base, with(0, Value(int64_t{4}))),
            TransitionClass::kLoosen);
  EXPECT_EQ(ClassifyParamDelta(info, base, with(2, Value(int64_t{3}))),
            TransitionClass::kLimitOnly);
  EXPECT_EQ(ClassifyParamDelta(info, base, with(1, Value(std::string("y")))),
            TransitionClass::kRebind);
  // Predicate + limit changed together still classifies by the predicate
  // direction: the delta executor re-resolves the row cap from the new
  // params, so a limit change rides along with a tighten for free.
  auto both = with(0, Value(int64_t{6}));
  both[2] = Value(int64_t{3});
  EXPECT_EQ(ClassifyParamDelta(info, base, both), TransitionClass::kTighten);
  // Cross-type flip on a directional param degrades to rebind.
  EXPECT_EQ(ClassifyParamDelta(info, base, with(0, Value(std::string("5")))),
            TransitionClass::kRebind);
  EXPECT_TRUE(info.has_limit_param());
  auto limit = ResolveLimitParams(info, base);
  ASSERT_TRUE(limit.ok());
  EXPECT_EQ(*limit, 9);
}

TEST(DeltaClassify, PolarityFlipsUnderNot) {
  Ast q = *ParseQuery("select a from t where not (a > 5)");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok());
  ShapeDeltaInfo info = AnalyzeShape(*pq);
  ASSERT_EQ(info.roles.size(), 1u);
  // NOT(a > p): raising p admits more rows — p acts as an upper bound.
  EXPECT_EQ(info.roles[0], ShapeDeltaInfo::ParamRole::kUpperBound);
  EXPECT_EQ(ClassifyParamDelta(info, pq->params, {Value(int64_t{6})}),
            TransitionClass::kLoosen);
  EXPECT_EQ(ClassifyParamDelta(info, pq->params, {Value(int64_t{4})}),
            TransitionClass::kTighten);
}

TEST(DeltaClassify, BetweenBoundsAndMixedDirections) {
  Ast q = *ParseQuery("select a from t where a between 2 and 8");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok());
  ShapeDeltaInfo info = AnalyzeShape(*pq);
  ASSERT_EQ(info.roles.size(), 2u);
  EXPECT_EQ(info.roles[0], ShapeDeltaInfo::ParamRole::kLowerBound);
  EXPECT_EQ(info.roles[1], ShapeDeltaInfo::ParamRole::kUpperBound);
  auto cls = [&](int64_t lo, int64_t hi) {
    return ClassifyParamDelta(info, pq->params, {Value(lo), Value(hi)});
  };
  EXPECT_EQ(cls(3, 8), TransitionClass::kTighten);  // narrow from below
  EXPECT_EQ(cls(3, 7), TransitionClass::kTighten);  // narrow both
  EXPECT_EQ(cls(1, 9), TransitionClass::kLoosen);   // widen both
  EXPECT_EQ(cls(3, 9), TransitionClass::kRebind);   // shift: mixed directions
}

TEST(DeltaClassify, InListIsOpaque) {
  Ast q = *ParseQuery("select a from t where a in (1, 4)");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok());
  ShapeDeltaInfo info = AnalyzeShape(*pq);
  for (auto role : info.roles) {
    EXPECT_EQ(role, ShapeDeltaInfo::ParamRole::kOpaque);
  }
}

// ---------------------------------------------------------------------------
// The differential harness: incremental == full re-execution, bit-identical,
// on randomized interaction walks, for every workload × backend.

struct WalkStats {
  size_t steps = 0;
  size_t rejected = 0;
};

void DriveAndVerify(InteractiveRuntime* rt, ExecutionBackend* oracle,
                    const std::vector<Ast>& queries,
                    const std::vector<WalkAction>& walk, const char* context,
                    WalkStats* stats) {
  for (const WalkAction& a : walk) {
    auto report = ApplyAction(rt, queries, a);
    if (!report.ok()) {
      ++stats->rejected;  // inactive widget / inexpressible / exec error
      continue;
    }
    ++stats->steps;
    auto q = rt->session().CurrentQuery();
    ASSERT_TRUE(q.ok()) << context << ": " << q.status().ToString();
    auto full = oracle->Execute(*q);
    // The oracle executes the same query fully; the runtime succeeded, so
    // the oracle must too (same engine semantics).
    ASSERT_TRUE(full.ok()) << context << ": " << full.status().ToString();
    auto maintained = rt->CurrentResult();
    ASSERT_TRUE(maintained.ok()) << context;
    EXPECT_TRUE(TablesIdentical(*maintained, *full))
        << context << " step " << stats->steps << " transition "
        << TransitionClassName(report->transition) << " sql "
        << *rt->CurrentSql();
  }
}

TEST(InteractiveDifferential, RandomWalksBitIdenticalAcrossBackends) {
  const size_t kSteps = 200;
  struct Sized {
    const char* name;
    size_t rows;
  };
  const Sized workloads[] = {{"flights", 300}, {"sdss", 200}, {"synthetic", 200}};
  // Selection-delta executions summed per backend across all workloads (a
  // single workload's walk may legitimately serve every same-shape revisit
  // from the memo).
  std::map<BackendKind, size_t> delta_execs_by_kind;
  for (const Sized& sized : workloads) {
    auto w = LoadWorkload(sized.name, sized.rows);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    GeneratedInterface iface = MakeInterface(w->log);
    auto queries = ParseQueries(w->log);
    ASSERT_TRUE(queries.ok());
    for (BackendKind kind : AvailableBackends()) {
      std::string context =
          std::string(sized.name) + "/" + std::string(BackendKindName(kind));
      auto backend = CreateBackend(kind, &w->db);
      ASSERT_TRUE(backend.ok()) << context;
      std::shared_ptr<ExecutionBackend> shared(std::move(*backend));
      auto rt = InteractiveRuntime::Create(iface, GeneratorOptions().constants,
                                           shared);
      ASSERT_TRUE(rt.ok()) << context << ": " << rt.status().ToString();
      auto oracle = CreateBackend(kind, &w->db);  // independent full executor
      ASSERT_TRUE(oracle.ok());

      Rng rng(0xD1FF + static_cast<uint64_t>(kind) * 7919 + sized.rows);
      // Generate enough attempts that >= kSteps succeed (invalid widget ops
      // are rejected without mutating state).
      std::vector<WalkAction> walk =
          MakeWalk((*rt)->session().difftree(), queries->size(), &rng, kSteps * 4);
      WalkStats stats;
      DriveAndVerify(rt->get(), oracle->get(), *queries, walk, context.c_str(),
                     &stats);
      if (HasFatalFailure()) return;
      EXPECT_GE(stats.steps, kSteps) << context;
      // The walk must genuinely exercise the incremental machinery (memo
      // hits and noops at minimum; selection deltas on the columnar
      // backend, which is delta-capable).
      auto counters = (*rt)->counters();
      EXPECT_GT(counters.noops + counters.cache_hits + counters.delta_execs +
                    counters.retruncates,
                0u)
          << context;
      delta_execs_by_kind[kind] += counters.delta_execs + counters.retruncates;
      if (kind != BackendKind::kColumnar) {
        EXPECT_EQ(counters.delta_execs, 0u) << context;  // fallback contract
        EXPECT_EQ(counters.retruncates, 0u) << context;
      }
    }
  }
  // The columnar backend (the delta-capable one) must have exercised the
  // selection-delta / retruncation paths somewhere in the sweep.
  EXPECT_GT(delta_execs_by_kind[BackendKind::kColumnar], 0u);
}

/// Multi-predicate WHERE regression: a derivation can put several
/// predicates directly under WHERE. Materialized as one AND, every plan
/// cache key (the parameterized shape's SQL) has a single parameter count,
/// so a walk on flights interfaces never binds a plan compiled for another
/// shape. Every event targets a widget visible in the current state, so
/// every step must succeed.
TEST(InteractiveRegression, FlightsWidgetWalkBindsEveryShapeConsistently) {
  auto w = LoadWorkload("flights", 300);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const CostConstants constants = GeneratorOptions().constants;
  size_t steps = 0, failed = 0;
  std::map<std::string, std::set<size_t>> param_counts;
  for (uint64_t seed : {1, 2, 3, 4}) {
    GeneratorOptions opt;
    opt.search.time_budget_ms = 0;
    opt.search.max_iterations = 40;
    opt.search.seed = seed;
    auto iface = GenerateInterface(w->log, opt);
    ASSERT_TRUE(iface.ok()) << iface.status().ToString();
    auto backend = CreateBackend(BackendKind::kColumnar, &w->db);
    ASSERT_TRUE(backend.ok());
    auto rt = InteractiveRuntime::Create(
        *iface, constants, std::shared_ptr<ExecutionBackend>(std::move(*backend)));
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    // A mirror session tells which widgets are visible without executing.
    auto mirror = InterfaceSession::Create(*iface, constants);
    ASSERT_TRUE(mirror.ok());
    const ChoiceIndex index(mirror->difftree());
    ASSERT_GT(index.size(), 0u);
    Rng rng(seed);
    for (size_t step = 0; step < 150; ++step) {
      const int id = static_cast<int>(rng.UniformIndex(index.size()));
      const DiffTree* node = index.node(static_cast<size_t>(id));
      Result<InteractiveRuntime::StepReport> report = Status::OK();
      if (node->kind == DKind::kAny) {
        const int option = static_cast<int>(rng.UniformIndex(node->children.size()));
        if (!mirror->SetAnyChoice(id, option).ok()) continue;
        report = (*rt)->SetAnyChoice(id, option);
      } else if (node->kind == DKind::kOpt) {
        const bool present = rng.Bernoulli(0.5);
        if (!mirror->SetOptPresent(id, present).ok()) continue;
        report = (*rt)->SetOptPresent(id, present);
      } else {
        continue;
      }
      ++steps;
      if (!report.ok()) {
        ++failed;
        ADD_FAILURE() << "seed " << seed << ": " << report.status().ToString();
        continue;
      }
      auto q = (*rt)->session().CurrentQuery();
      ASSERT_TRUE(q.ok());
      auto pq = ParameterizeQuery(*q);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      param_counts[pq->key].insert(pq->params.size());
    }
  }
  EXPECT_GT(steps, 100u);
  EXPECT_EQ(failed, 0u);
  for (const auto& [key, counts] : param_counts) {
    EXPECT_EQ(counts.size(), 1u) << key;
  }
}

TEST(InteractiveDifferential, DeltaOffIsIdenticalAndFullyExecutes) {
  auto w = LoadWorkload("flights", 250);
  ASSERT_TRUE(w.ok());
  GeneratedInterface iface = MakeInterface(w->log);
  auto queries = ParseQueries(w->log);
  ASSERT_TRUE(queries.ok());
  auto backend = CreateBackend(BackendKind::kColumnar, &w->db);
  ASSERT_TRUE(backend.ok());
  std::shared_ptr<ExecutionBackend> shared(std::move(*backend));

  InteractiveRuntime::Options on;
  InteractiveRuntime::Options off;
  off.enable_delta = false;
  auto rt_on =
      InteractiveRuntime::Create(iface, GeneratorOptions().constants, shared, on);
  auto rt_off =
      InteractiveRuntime::Create(iface, GeneratorOptions().constants, shared, off);
  ASSERT_TRUE(rt_on.ok() && rt_off.ok());

  Rng rng(424242);
  std::vector<WalkAction> walk =
      MakeWalk((*rt_on)->session().difftree(), queries->size(), &rng, 400);
  size_t agreed = 0;
  for (const WalkAction& a : walk) {
    auto r1 = ApplyAction(rt_on->get(), *queries, a);
    auto r2 = ApplyAction(rt_off->get(), *queries, a);
    ASSERT_EQ(r1.ok(), r2.ok()) << "delta on/off diverged on step validity";
    if (!r1.ok()) continue;
    auto t1 = (*rt_on)->CurrentResult();
    auto t2 = (*rt_off)->CurrentResult();
    ASSERT_TRUE(t1.ok() && t2.ok());
    ASSERT_TRUE(TablesIdentical(*t1, *t2))
        << "step transition " << TransitionClassName(r1->transition);
    // Both arms classify identically; only maintenance differs.
    EXPECT_EQ(r1->transition, r2->transition);
    ++agreed;
  }
  ASSERT_GT(agreed, 100u);
  auto on_counters = (*rt_on)->counters();
  auto off_counters = (*rt_off)->counters();
  EXPECT_EQ(off_counters.full_execs, off_counters.steps);
  EXPECT_LT(on_counters.full_execs, on_counters.steps);
  EXPECT_GT(on_counters.cache_hits + on_counters.noops + on_counters.delta_execs +
                on_counters.retruncates,
            0u);
}

// ---------------------------------------------------------------------------
// Change feed: applying a poll's diffs to the previously delivered table
// reproduces the current table (as a multiset).

// Deliberately independent of the runtime's internal cell encoding: the
// mirror is an *oracle* for the change-feed contract, so sharing the
// production fingerprint helper would let an encoding bug hide itself.
std::string RowKeyOf(const std::vector<Value>& row) {
  std::string k;
  for (const Value& v : row) {
    if (v.is_null()) {
      k += "n|";
    } else if (v.is_int()) {
      k += "i" + std::to_string(v.AsInt()) + "|";
    } else if (v.is_double()) {
      char buf[64];
      snprintf(buf, sizeof(buf), "d%.17g|", v.AsDouble());
      k += buf;
    } else {
      k += "s" + std::to_string(v.AsString().size()) + ":" + v.AsString() + "|";
    }
  }
  return k;
}

std::vector<Value> TableRow(const Table& t, size_t r) {
  std::vector<Value> row;
  for (size_t c = 0; c < t.num_columns(); ++c) row.push_back(t.At(r, c));
  return row;
}

/// A schema-free multiset mirror of a feed consumer's view.
struct Mirror {
  std::vector<std::vector<Value>> rows;

  Status Apply(const InteractiveRuntime::ChangeBatch& batch) {
    auto remove_one = [this](const std::vector<Value>& victim) -> Status {
      std::string key = RowKeyOf(victim);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (RowKeyOf(rows[i]) == key) {
          rows.erase(rows.begin() + static_cast<long>(i));
          return Status::OK();
        }
      }
      return Status::Invalid("change feed removed a row the mirror lacks");
    };
    for (const auto& c : batch.changes) {
      using Kind = InteractiveRuntime::RowChange::Kind;
      switch (c.kind) {
        case Kind::kAdd:
          rows.push_back(c.row);
          break;
        case Kind::kRemove: {
          auto s = remove_one(c.row);
          if (!s.ok()) return s;
          break;
        }
        case Kind::kUpdate: {
          auto s = remove_one(c.old_row);
          if (!s.ok()) return s;
          rows.push_back(c.row);
          break;
        }
      }
    }
    return Status::OK();
  }

  ::testing::AssertionResult Matches(const Table& t) const {
    if (rows.size() != t.num_rows()) {
      return ::testing::AssertionFailure()
             << "mirror has " << rows.size() << " rows, table " << t.num_rows();
    }
    std::multiset<std::string> a;
    std::multiset<std::string> b;
    for (const auto& r : rows) a.insert(RowKeyOf(r));
    for (size_t r = 0; r < t.num_rows(); ++r) b.insert(RowKeyOf(TableRow(t, r)));
    if (a != b) {
      return ::testing::AssertionFailure() << "mirror multiset differs";
    }
    return ::testing::AssertionSuccess();
  }
};

::testing::AssertionResult RowsIdentical(const std::vector<Value>& a,
                                         const std::vector<Value>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "row width " << a.size() << " vs " << b.size();
  }
  for (size_t c = 0; c < a.size(); ++c) {
    if (!CellsIdentical(a[c], b[c])) {
      return ::testing::AssertionFailure() << "cell " << c << ": " << a[c].ToString()
                                           << " vs " << b[c].ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

/// Field-by-field equality of two batches, step reports included.
::testing::AssertionResult BatchesIdentical(const InteractiveRuntime::ChangeBatch& a,
                                            const InteractiveRuntime::ChangeBatch& b) {
  if (a.from_version != b.from_version || a.to_version != b.to_version) {
    return ::testing::AssertionFailure()
           << "span [" << a.from_version << ", " << a.to_version << "] vs ["
           << b.from_version << ", " << b.to_version << "]";
  }
  const InteractiveRuntime::StepReport& x = a.last_step;
  const InteractiveRuntime::StepReport& y = b.last_step;
  if (x.transition != y.transition || x.incremental != y.incremental ||
      x.from_cache != y.from_cache || x.widgets_changed != y.widgets_changed ||
      x.interaction_cost != y.interaction_cost || x.navigation_cost != y.navigation_cost ||
      x.rows != y.rows || x.rows_added != y.rows_added || x.rows_removed != y.rows_removed ||
      x.rows_updated != y.rows_updated) {
    return ::testing::AssertionFailure() << "last_step differs";
  }
  if (a.changes.size() != b.changes.size()) {
    return ::testing::AssertionFailure()
           << a.changes.size() << " changes vs " << b.changes.size();
  }
  for (size_t i = 0; i < a.changes.size(); ++i) {
    const auto& c = a.changes[i];
    const auto& d = b.changes[i];
    if (c.kind != d.kind) return ::testing::AssertionFailure() << "change " << i << " kind";
    auto row = RowsIdentical(c.row, d.row);
    if (!row) return row << " (change " << i << " row)";
    auto old_row = RowsIdentical(c.old_row, d.old_row);
    if (!old_row) return old_row << " (change " << i << " old_row)";
  }
  return ::testing::AssertionSuccess();
}

Mirror MirrorOf(const Table& t) {
  Mirror mirror;
  for (size_t r = 0; r < t.num_rows(); ++r) mirror.rows.push_back(TableRow(t, r));
  return mirror;
}

/// How a walk's diffs reach the mirror.
enum class FeedInput : uint8_t {
  kFeedEveryThirdStep,  ///< PollFeed after every third attempted step
  kStepEqualsFeed,      ///< each step's batch == a feed drained right after it
  kStepBatchesOnly,     ///< the mirror gets only the steps' batches
};

void WalkFeed(InteractiveRuntime* rt, const std::vector<Ast>& queries,
              const std::vector<WalkAction>& walk, FeedInput input,
              const std::string& context) {
  auto initial = rt->CurrentResult();
  ASSERT_TRUE(initial.ok()) << context;
  Mirror mirror = MirrorOf(*initial);
  size_t applied = 0;
  uint64_t last_version = rt->version();
  for (size_t i = 0; i < walk.size(); ++i) {
    InteractiveRuntime::ChangeBatch step;
    step.from_version = 7;  // a failed step must leave the batch untouched
    const bool ok = ApplyAction(rt, queries, walk[i], &step).ok();
    if (ok) ++applied;
    switch (input) {
      case FeedInput::kFeedEveryThirdStep: {
        if (i % 3 != 2) continue;
        InteractiveRuntime::ChangeBatch batch = rt->PollFeed();
        EXPECT_EQ(batch.from_version, last_version) << context;  // resumes where it left off
        EXPECT_LE(batch.from_version, batch.to_version) << context;
        last_version = batch.to_version;
        ASSERT_TRUE(mirror.Apply(batch).ok()) << context;
        break;
      }
      case FeedInput::kStepEqualsFeed: {
        InteractiveRuntime::ChangeBatch feed = rt->PollFeed();
        if (!ok) {
          EXPECT_EQ(step.from_version, 7u) << context << " step " << i;
          EXPECT_EQ(feed.from_version, feed.to_version) << context << " step " << i;
          EXPECT_TRUE(feed.changes.empty()) << context << " step " << i;
          continue;
        }
        EXPECT_EQ(step.from_version + 1, step.to_version) << context;
        EXPECT_TRUE(BatchesIdentical(step, feed)) << context << " step " << i;
        ASSERT_TRUE(mirror.Apply(step).ok()) << context;
        break;
      }
      case FeedInput::kStepBatchesOnly: {
        if (!ok) continue;
        EXPECT_EQ(step.from_version, last_version) << context;
        last_version = step.to_version;
        ASSERT_TRUE(mirror.Apply(step).ok()) << context << " step " << i;
        break;
      }
    }
    auto current = rt->CurrentResult();
    ASSERT_TRUE(current.ok()) << context;
    EXPECT_TRUE(mirror.Matches(*current)) << context << " after step " << i;
  }
  ASSERT_GT(applied, 50u) << context;
  if (input != FeedInput::kFeedEveryThirdStep) return;
  // Final drain: mirror converges exactly.
  ASSERT_TRUE(mirror.Apply(rt->PollFeed()).ok()) << context;
  auto current = rt->CurrentResult();
  ASSERT_TRUE(current.ok()) << context;
  EXPECT_TRUE(mirror.Matches(*current)) << context;
}

TEST(ChangeFeed, DiffsApplyCleanlyAcrossRandomWalk) {
  auto w = LoadWorkload("sdss", 200);
  ASSERT_TRUE(w.ok());
  GeneratedInterface iface = MakeInterface(w->log);
  auto queries = ParseQueries(w->log);
  ASSERT_TRUE(queries.ok());
  auto make_runtime = [&](BackendKind kind, bool enable_delta) {
    auto backend = CreateBackend(kind, &w->db);
    EXPECT_TRUE(backend.ok());
    InteractiveRuntime::Options opts;
    opts.enable_delta = enable_delta;
    return InteractiveRuntime::Create(
        iface, GeneratorOptions().constants,
        std::shared_ptr<ExecutionBackend>(std::move(*backend)), opts);
  };
  {
    auto rt = make_runtime(BackendKind::kColumnar, true);
    ASSERT_TRUE(rt.ok());
    Rng rng(777);
    WalkFeed(rt->get(), *queries,
             MakeWalk((*rt)->session().difftree(), queries->size(), &rng, 300),
             FeedInput::kFeedEveryThirdStep, "feed every third step");
  }
  // A step's batch is the feed's diff for that one step, and the batches
  // alone keep a mirror in step, on every backend with delta on and off.
  for (FeedInput input : {FeedInput::kStepEqualsFeed, FeedInput::kStepBatchesOnly}) {
    for (BackendKind kind : AvailableBackends()) {
      for (bool enable_delta : {true, false}) {
        std::string context =
            std::string(input == FeedInput::kStepEqualsFeed ? "step == feed" : "step batches") +
            "/" + std::string(BackendKindName(kind)) + (enable_delta ? "/delta" : "/full");
        auto rt = make_runtime(kind, enable_delta);
        ASSERT_TRUE(rt.ok()) << context << ": " << rt.status().ToString();
        Rng rng(input == FeedInput::kStepEqualsFeed ? 778 : 779);
        WalkFeed(rt->get(), *queries,
                 MakeWalk((*rt)->session().difftree(), queries->size(), &rng, 300),
                 input, context);
      }
    }
  }
}

TEST(ChangeFeed, ConcurrentPollersConverge) {
  auto w = LoadWorkload("flights", 150);
  ASSERT_TRUE(w.ok());
  GeneratedInterface iface = MakeInterface(w->log, 15);
  auto queries = ParseQueries(w->log);
  ASSERT_TRUE(queries.ok());
  ASSERT_GE(queries->size(), 2u);
  auto backend = CreateBackend(BackendKind::kColumnar, &w->db);
  ASSERT_TRUE(backend.ok());
  auto rt = InteractiveRuntime::Create(iface, GeneratorOptions().constants,
                                       std::shared_ptr<ExecutionBackend>(
                                           std::move(*backend)));
  ASSERT_TRUE(rt.ok());
  InteractiveRuntime* runtime = rt->get();
  auto initial = runtime->CurrentResult();
  ASSERT_TRUE(initial.ok());

  // Both pollers drain the one shared feed while the writer steps; each
  // keeps the non-empty spans it received.
  std::atomic<bool> done{false};
  std::vector<InteractiveRuntime::ChangeBatch> received[2];
  auto poller = [&](std::vector<InteractiveRuntime::ChangeBatch>* out) {
    auto drain = [&] {
      InteractiveRuntime::ChangeBatch batch = runtime->PollFeed();
      if (batch.from_version != batch.to_version) out->push_back(std::move(batch));
    };
    while (!done.load()) {
      drain();
      std::this_thread::yield();
    }
    drain();
  };

  std::thread p1(poller, &received[0]);
  std::thread p2(poller, &received[1]);
  for (int round = 0; round < 40; ++round) {
    // The writer pauses after every other step: without pauses it holds the
    // mutex nearly throughout and the pollers see one span; with them they
    // see one- and two-step spans.
    if (round % 2 == 1) std::this_thread::sleep_for(std::chrono::microseconds(200));
    (void)runtime->LoadQuery((*queries)[static_cast<size_t>(round) %
                                        queries->size()]);
  }
  done.store(true);
  p1.join();
  p2.join();

  // The spans tile [1, final version] with no gap or overlap ...
  std::vector<InteractiveRuntime::ChangeBatch> all = std::move(received[0]);
  for (auto& b : received[1]) all.push_back(std::move(b));
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.from_version < b.from_version;
  });
  ASSERT_FALSE(all.empty());
  uint64_t next = 1;
  for (const auto& b : all) {
    EXPECT_EQ(b.from_version, next) << "span gap or overlap";
    EXPECT_LT(b.from_version, b.to_version);
    next = b.to_version;
  }
  EXPECT_EQ(next, runtime->version());
  // ... and a mirror fed every batch in version order converges.
  Mirror mirror = MirrorOf(*initial);
  for (const auto& b : all) ASSERT_TRUE(mirror.Apply(b).ok());
  auto current = runtime->CurrentResult();
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(mirror.Matches(*current));
}

// ---------------------------------------------------------------------------
// Wiring.

TEST(InteractiveWiring, ServiceOpensSessionsOnSharedBackend) {
  auto w = LoadWorkload("flights", 150);
  ASSERT_TRUE(w.ok());
  GeneratedInterface iface = MakeInterface(w->log, 15);
  GenerationService service;
  auto s1 = service.OpenSession(iface, GeneratorOptions().constants, &w->db,
                                BackendKind::kColumnar);
  auto s2 = service.OpenSession(iface, GeneratorOptions().constants, &w->db,
                                BackendKind::kColumnar);
  ASSERT_TRUE(s1.ok() && s2.ok()) << s1.status().ToString();
  EXPECT_EQ(service.backend_stats().size(), 1u);  // one columnar store, shared
  EXPECT_EQ(service.counters_snapshot().sessions_opened, 2u);
  // Independent widget state over the shared backend.
  auto queries = ParseQueries(w->log);
  ASSERT_TRUE(queries.ok());
  auto r = (*s1)->LoadQuery((*queries)[0]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE((*s1)->version(), 2u);
  EXPECT_EQ((*s2)->version(), 1u);
}

}  // namespace
}  // namespace ifgen
