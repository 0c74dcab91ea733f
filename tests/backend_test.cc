#include <gtest/gtest.h>

#include <thread>

#include "core/interface_generator.h"
#include "core/session.h"
#include "engine/backend.h"
#include "engine/columnar/columnar_backend.h"
#include "engine/executor.h"
#include "runtime/service.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "util/rng.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

Database TinyDb() {
  TableSchema schema{"t",
                     {{"a", ColumnType::kInt64},
                      {"b", ColumnType::kDouble},
                      {"s", ColumnType::kString}}};
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.5), Value(std::string("x"))}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value(2.5), Value(std::string("y"))}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value(3.5), Value(std::string("x"))}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{4}), Value(), Value(std::string("z"))}).ok());
  Database db;
  db.AddTable(std::move(t));
  return db;
}

/// A table exercising hash-aggregate edge cases: NULL group keys and NULL
/// aggregate inputs.
Database NullGroupDb() {
  TableSchema schema{"g", {{"k", ColumnType::kString}, {"v", ColumnType::kDouble}}};
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value(std::string("a")), Value(1.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(std::string("a")), Value()}).ok());
  EXPECT_TRUE(t.AppendRow({Value(), Value(3.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(), Value(4.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(std::string("b")), Value()}).ok());
  Database db;
  db.AddTable(std::move(t));
  return db;
}

/// Queries with reference semantics every backend must reproduce. (NULL
/// ordering in `<`-style comparisons is deliberately avoided: the SQLite
/// backend follows SQL three-valued logic there, the in-process engines
/// order NULLs first — see docs/engine.md. TOP/LIMIT without a total
/// ORDER BY relies on SQLite scanning in rowid = insertion order, which
/// current SQLite does for these fresh single-table stores.)
const std::vector<std::string>& TinyBattery() {
  static const std::vector<std::string> kQueries = {
      "select a from t where b > 2.0",
      "select * from t",
      "select count(*) from t where s = 'x'",
      "select count(b), sum(b), avg(b), min(b), max(b) from t",
      "select s, count(*) from t group by s order by s",
      "select count(*) from t where a > 100",
      "select a from t order by a desc limit 2",
      "select top 2 a from t",
      "select a from t where a between 2 and 3",
      "select a from t where a in (1, 4)",
      "select a from t where s like 'x%'",
      "select distinct s from t",
      "select a from t where not (a = 1) and (s = 'x' or s = 'y')",
      "select a, b from t where a >= 2 and b >= 0.0 order by b desc",
      "select s, avg(b), max(a) from t group by s order by s",
      "select a * 2 as d from t where a <> 3 order by d",
  };
  return kQueries;
}

TEST(Parameterize, ExtractsWhereAndLimitLiterals) {
  Ast q = *ParseQuery("select top 5 a from t where a > 3 and s = 'x' limit 9");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_EQ(pq->params.size(), 4u);  // 3, 'x', 5 (top), 9 (limit)
  EXPECT_NE(pq->key.find("?1"), std::string::npos);
  EXPECT_EQ(pq->key.find("'x'"), std::string::npos) << pq->key;
  // Binding the extracted params back recovers the original query.
  auto bound = BindParams(pq->shape, pq->params);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(*Unparse(*bound), *Unparse(q));
}

TEST(Parameterize, RejectsAlreadyParameterizedShape) {
  Ast q = *ParseQuery("select top 3 a from t where a > 1");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok());
  // Re-parameterizing a shape (TOP value "?1") must error, not throw.
  auto again = ParameterizeQuery(pq->shape);
  EXPECT_FALSE(again.ok());
}

TEST(Parameterize, ProjectionLiteralsStayInline) {
  Ast q = *ParseQuery("select a + 1 from t where a > 2");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok());
  // Only the WHERE literal is parameterized; the SELECT-list literal names
  // the output column and must stay part of the shape.
  EXPECT_EQ(pq->params.size(), 1u);
  EXPECT_NE(pq->key.find("a + 1"), std::string::npos) << pq->key;
}

TEST(Backend, AvailableKindsIncludeReferenceAndColumnar) {
  EXPECT_TRUE(BackendAvailable(BackendKind::kReference));
  EXPECT_TRUE(BackendAvailable(BackendKind::kColumnar));
  std::vector<BackendKind> kinds = AvailableBackends();
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], BackendKind::kReference);
}

TEST(Backend, TinyBatteryAgreesAcrossAllBackends) {
  Database db = TinyDb();
  Status s = VerifyBackendsAgree(db, TinyBattery(), AvailableBackends());
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(Backend, WorkloadsAgreeAcrossAllBackends) {
  auto workloads = LoadAllWorkloads(300);
  ASSERT_TRUE(workloads.ok()) << workloads.status().ToString();
  for (const WorkloadBundle& w : *workloads) {
    Status s = VerifyBackendsAgree(w.db, w.log, AvailableBackends());
    EXPECT_TRUE(s.ok()) << w.name << ": " << s.ToString();
  }
}

TEST(Backend, PlanCacheRebindsInsteadOfRecompiling) {
  Database db = TinyDb();
  for (BackendKind kind : AvailableBackends()) {
    auto backend = CreateBackend(kind, &db);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    auto r1 = (*backend)->ExecuteSql("select a from t where a > 1");
    auto r2 = (*backend)->ExecuteSql("select a from t where a > 3");
    ASSERT_TRUE(r1.ok() && r2.ok()) << BackendKindName(kind);
    // Same shape, different literals: one compilation, one cache hit, and
    // genuinely different results from the rebound parameters.
    EXPECT_EQ(r1->num_rows(), 3u) << BackendKindName(kind);
    EXPECT_EQ(r2->num_rows(), 1u) << BackendKindName(kind);
    BackendStats stats = (*backend)->stats();
    EXPECT_EQ(stats.prepares, 1u) << BackendKindName(kind);
    EXPECT_EQ(stats.plan_cache_hits, 1u) << BackendKindName(kind);
    EXPECT_EQ(stats.executions, 2u) << BackendKindName(kind);
  }
}

TEST(Backend, DistinctShapesCompileSeparately) {
  Database db = TinyDb();
  auto backend = CreateBackend(BackendKind::kColumnar, &db);
  ASSERT_TRUE(backend.ok());
  ASSERT_TRUE((*backend)->ExecuteSql("select a from t where a > 1").ok());
  ASSERT_TRUE((*backend)->ExecuteSql("select b from t where a > 1").ok());
  EXPECT_EQ((*backend)->stats().prepares, 2u);
}

TEST(Backend, ErrorsMatchReferenceSemantics) {
  Database db = TinyDb();
  for (BackendKind kind : AvailableBackends()) {
    auto backend = CreateBackend(kind, &db);
    ASSERT_TRUE(backend.ok());
    EXPECT_FALSE((*backend)->ExecuteSql("select a from missing").ok())
        << BackendKindName(kind);
    EXPECT_FALSE((*backend)->ExecuteSql("select nope from t").ok())
        << BackendKindName(kind);
  }
  // Unknown functions are rejected by the in-process engines at compile
  // time (SQLite has its own function library, so it is not pinned here).
  for (BackendKind kind : {BackendKind::kReference, BackendKind::kColumnar}) {
    auto backend = CreateBackend(kind, &db);
    EXPECT_FALSE((*backend)->ExecuteSql("select frob(a) from t").ok())
        << BackendKindName(kind);
  }
}

TEST(Backend, SqliteGatedByBuildOption) {
  Database db = TinyDb();
  auto backend = CreateBackend(BackendKind::kSqlite, &db);
  if (BackendAvailable(BackendKind::kSqlite)) {
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    EXPECT_EQ((*backend)->name(), "sqlite");
  } else {
    EXPECT_FALSE(backend.ok());
  }
}

// ---------------------------------------------------------------------------
// Columnar hash-aggregate edge cases.

TEST(ColumnarAggregate, NullGroupKeysMatchReference) {
  Database db = NullGroupDb();
  const std::vector<std::string> queries = {
      "select k, count(*), count(v), sum(v), avg(v), min(v), max(v) from g group by k",
      "select k, count(*) from g group by k order by k",
  };
  Status s = VerifyBackendsAgree(db, queries,
                                 {BackendKind::kReference, BackendKind::kColumnar});
  EXPECT_TRUE(s.ok()) << s.ToString();

  // Pin the semantics, not just the agreement: the NULL key forms its own
  // group, and NULL aggregate inputs are skipped.
  auto backend = CreateBackend(BackendKind::kColumnar, &db);
  auto r = (*backend)->ExecuteSql(
      "select k, count(*), count(v), sum(v) from g group by k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Table sorted = SortedByAllColumns(*r);
  ASSERT_EQ(sorted.num_rows(), 3u);
  EXPECT_TRUE(sorted.At(0, 0).is_null());          // NULL group first
  EXPECT_EQ(sorted.At(0, 1).AsInt(), 2);           // two NULL-key rows
  EXPECT_EQ(sorted.At(0, 2).AsInt(), 2);           // both values non-null
  EXPECT_DOUBLE_EQ(sorted.At(0, 3).AsDouble(), 7.0);
  EXPECT_EQ(sorted.At(1, 0).AsString(), "a");
  EXPECT_EQ(sorted.At(1, 2).AsInt(), 1);           // NULL v skipped by count(v)
  EXPECT_EQ(sorted.At(2, 0).AsString(), "b");
  EXPECT_TRUE(sorted.At(2, 3).is_null());          // sum over all-NULL group
}

TEST(ColumnarAggregate, EmptyInputEdgeCases) {
  Database db = NullGroupDb();
  auto backend = CreateBackend(BackendKind::kColumnar, &db);
  ASSERT_TRUE(backend.ok());

  // Grouped aggregate over zero rows: zero groups.
  auto grouped = (*backend)->ExecuteSql(
      "select k, count(*) from g where v > 100 group by k");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->num_rows(), 0u);

  // Ungrouped aggregates over zero rows: exactly one row, count 0 and NULL
  // for the value aggregates.
  auto scalar = (*backend)->ExecuteSql(
      "select count(*), sum(v), avg(v), min(v) from g where v > 100");
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  ASSERT_EQ(scalar->num_rows(), 1u);
  EXPECT_EQ(scalar->At(0, 0).AsInt(), 0);
  EXPECT_TRUE(scalar->At(0, 1).is_null());
  EXPECT_TRUE(scalar->At(0, 2).is_null());
  EXPECT_TRUE(scalar->At(0, 3).is_null());

  // Same two queries must also agree with the reference executor.
  Status s = VerifyBackendsAgree(
      db,
      {"select k, count(*) from g where v > 100 group by k",
       "select count(*), sum(v), avg(v), min(v) from g where v > 100"},
      {BackendKind::kReference, BackendKind::kColumnar});
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(Backend, StickyOrderByOverMissingColumnToleratedForTinyResults) {
  // A widget state can combine a projection variant with a sticky ORDER BY
  // over a column it no longer outputs. The original executor only
  // resolved ORDER BY when the result had >1 rows; both in-process
  // backends must preserve that (the 1-row aggregate below used to work
  // and must keep working; the multi-row variant errors on both).
  Database db = TinyDb();
  for (BackendKind kind : {BackendKind::kReference, BackendKind::kColumnar}) {
    auto backend = CreateBackend(kind, &db);
    ASSERT_TRUE(backend.ok());
    auto one_row = (*backend)->ExecuteSql("select count(*) from t order by b");
    EXPECT_TRUE(one_row.ok()) << BackendKindName(kind) << ": "
                              << one_row.status().ToString();
    auto multi_row = (*backend)->ExecuteSql("select a from t order by frobnicate");
    EXPECT_FALSE(multi_row.ok()) << BackendKindName(kind);
  }
}

TEST(ColumnarAggregate, ArithmeticOverAggregates) {
  Database db = TinyDb();
  Status s = VerifyBackendsAgree(
      db, {"select sum(b) / count(b) from t", "select s, max(a) - min(a) from t group by s"},
      {BackendKind::kReference, BackendKind::kColumnar});
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Property tests: ParameterizeQuery / BindParams round-trip on fuzzed ASTs.
//
// The property is P(B(P(q))) == P(q): parameterizing, binding the extracted
// literals back, and re-parameterizing must reproduce the identical shape key
// and the identical parameter values (exact type class and content) — for
// arbitrary predicate trees over literals including negatives, empty strings,
// embedded quotes, and exponent-form doubles. This pins the traversal-order
// agreement between ParameterizeExpr and BindExpr and the literal-spelling
// round-trip (LiteralText -> ParseNumericLiteral).

namespace property {

Ast RandomLiteral(Rng* rng) {
  switch (rng->UniformIndex(10)) {
    case 0:
      return Str("");  // empty string
    case 1:
      return Str("it's");  // embedded single quote (unparser re-escapes)
    case 2:
      return Str("a\"b \\ c%_");  // double quote, backslash, LIKE metachars
    case 3:
      return Str("123");  // digit-only string must STAY a string
    case 4:
      return Num(int64_t{-5});
    case 5:
      return Num("-2.75");
    case 6:
      return Num("0");
    case 7:
      return Num("1e-9");  // exponent form parses as double
    case 8:
      return Num(int64_t{9223372036854775807LL});  // int64 max survives
    default:
      return rng->Bernoulli(0.5)
                 ? Num(rng->UniformInt(-1000000, 1000000))
                 : Num(std::to_string(rng->UniformDouble(-1000.0, 1000.0)));
  }
}

Ast RandomPredicate(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">=", "like"};
    switch (rng->UniformIndex(4)) {
      case 0:
        return Ast(Symbol::kBiExpr, kCmps[rng->UniformIndex(7)],
                   {Col("a"), RandomLiteral(rng)});
      case 1:
        return Ast(Symbol::kBetween,
                   {Col("b"), RandomLiteral(rng), RandomLiteral(rng)});
      case 2: {
        std::vector<Ast> items;
        size_t n = 1 + rng->UniformIndex(3);
        for (size_t i = 0; i < n; ++i) items.push_back(RandomLiteral(rng));
        return Ast(Symbol::kIn, {Col("s"), Ast(Symbol::kList, std::move(items))});
      }
      default:
        // Literal-vs-literal comparisons also occur transiently under rule
        // rewrites; both sides parameterize.
        return Ast(Symbol::kBiExpr, ">", {RandomLiteral(rng), RandomLiteral(rng)});
    }
  }
  switch (rng->UniformIndex(3)) {
    case 0:
      return Ast(Symbol::kAnd, {RandomPredicate(rng, depth - 1),
                                RandomPredicate(rng, depth - 1)});
    case 1:
      return Ast(Symbol::kOr, {RandomPredicate(rng, depth - 1),
                               RandomPredicate(rng, depth - 1)});
    default:
      return Ast(Symbol::kNot, {RandomPredicate(rng, depth - 1)});
  }
}

Ast RandomQuery(Rng* rng) {
  std::vector<Ast> clauses;
  clauses.push_back(Ast(Symbol::kProject, {Col("a"), Col("b")}));
  if (rng->Bernoulli(0.3)) {
    clauses.push_back(
        Ast(Symbol::kTop, std::to_string(rng->UniformInt(0, 50))));
  }
  clauses.push_back(Ast(Symbol::kFrom, {Ast(Symbol::kTable, "t")}));
  clauses.push_back(Ast(Symbol::kWhere, {RandomPredicate(rng, 3)}));
  if (rng->Bernoulli(0.3)) {
    clauses.push_back(
        Ast(Symbol::kOrderBy, {Ast(Symbol::kOrderKey, "desc", {Col("a")})}));
  }
  if (rng->Bernoulli(0.3)) {
    clauses.push_back(
        Ast(Symbol::kLimit, std::to_string(rng->UniformInt(0, 50))));
  }
  return Ast(Symbol::kSelect, std::move(clauses));
}

bool ValuesIdentical(const Value& x, const Value& y) {
  if (x.is_null() || y.is_null()) return x.is_null() && y.is_null();
  if (x.is_int() != y.is_int() || x.is_double() != y.is_double() ||
      x.is_string() != y.is_string()) {
    return false;
  }
  if (x.is_int()) return x.AsInt() == y.AsInt();
  if (x.is_double()) return x.AsDouble() == y.AsDouble();
  return x.AsString() == y.AsString();
}

}  // namespace property

TEST(ParameterizeProperty, RoundTripOnFuzzedAsts) {
  Rng rng(0xF022);
  for (int iter = 0; iter < 500; ++iter) {
    Ast q = property::RandomQuery(&rng);
    auto pq = ParameterizeQuery(q);
    ASSERT_TRUE(pq.ok()) << iter << ": " << pq.status().ToString() << "\n"
                         << q.ToSExpr();
    auto bound = BindParams(pq->shape, pq->params);
    ASSERT_TRUE(bound.ok()) << iter << ": " << bound.status().ToString();
    auto pq2 = ParameterizeQuery(*bound);
    ASSERT_TRUE(pq2.ok()) << iter << ": " << pq2.status().ToString();
    EXPECT_EQ(pq2->key, pq->key) << iter;
    ASSERT_EQ(pq2->params.size(), pq->params.size()) << iter;
    for (size_t i = 0; i < pq->params.size(); ++i) {
      EXPECT_TRUE(property::ValuesIdentical(pq->params[i], pq2->params[i]))
          << iter << " param " << i << ": " << pq->params[i].ToString() << " vs "
          << pq2->params[i].ToString();
    }
    // The shape itself is a fixed point: parameterizing strips every
    // literal, so the bound query's shape is structurally the original's.
    EXPECT_EQ(pq2->shape, pq->shape) << iter;
  }
}

TEST(ParameterizeProperty, MalformedBindsRejectedCleanly) {
  Ast q = *ParseQuery("select top 3 a from t where a > 5 and s = 'x' limit 7");
  auto pq = ParameterizeQuery(q);
  ASSERT_TRUE(pq.ok());
  ASSERT_EQ(pq->params.size(), 4u);

  // NULL parameter: no literal spelling — must error, not crash.
  std::vector<Value> with_null = pq->params;
  with_null[0] = Value();
  EXPECT_FALSE(BindParams(pq->shape, with_null).ok());

  // Wrong arity in both directions.
  std::vector<Value> short_params(pq->params.begin(), pq->params.end() - 1);
  EXPECT_FALSE(BindParams(pq->shape, short_params).ok());
  EXPECT_FALSE(BindParams(pq->shape, {}).ok());

  // Non-integer TOP/LIMIT binding.
  std::vector<Value> bad_limit = pq->params;
  for (size_t i = 0; i < bad_limit.size(); ++i) {
    if (bad_limit[i].is_int() && bad_limit[i].AsInt() == 3) {
      bad_limit[i] = Value(std::string("three"));
    }
  }
  EXPECT_FALSE(BindParams(pq->shape, bad_limit).ok());

  // Executing a shape through a backend with NULL params must also error
  // cleanly (the prepared plan re-validates bindings).
  Database db = TinyDb();
  for (BackendKind kind : AvailableBackends()) {
    auto backend = CreateBackend(kind, &db);
    ASSERT_TRUE(backend.ok());
    auto plan = (*backend)->Prepare(*ParseQuery("select a from t where a > 1"));
    ASSERT_TRUE(plan.ok()) << BackendKindName(kind);
    EXPECT_FALSE((*plan)->Execute({}).ok()) << BackendKindName(kind);
  }
}

// ---------------------------------------------------------------------------
// Wiring: session and service.

GeneratorOptions FastOptions() {
  GeneratorOptions opt;
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 10;
  opt.search.seed = 5;
  return opt;
}

TEST(BackendWiring, SessionExecutesThroughSelectedBackend) {
  auto w = LoadWorkload("flights", 300);
  ASSERT_TRUE(w.ok());
  auto iface = GenerateInterface(w->log, FastOptions());
  ASSERT_TRUE(iface.ok()) << iface.status().ToString();
  auto session = InterfaceSession::Create(*iface, FastOptions().constants);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto backend = CreateBackend(GeneratorOptions().backend, &w->db);
  ASSERT_TRUE(backend.ok());
  auto reference = CreateBackend(BackendKind::kReference, &w->db);
  ASSERT_TRUE(reference.ok());
  auto queries = ParseQueries(w->log);
  ASSERT_TRUE(queries.ok());
  size_t executed = 0;
  for (const Ast& q : *queries) {
    if (!session->LoadQuery(q).ok()) continue;  // inexpressible under tiny search
    auto via_backend = session->ExecuteCurrent(backend->get());
    ASSERT_TRUE(via_backend.ok()) << via_backend.status().ToString();
    auto via_reference = session->ExecuteCurrent(reference->get());
    ASSERT_TRUE(via_reference.ok());
    Status eq = TablesEquivalent(*via_reference, *via_backend);
    EXPECT_TRUE(eq.ok()) << eq.ToString();
    ++executed;
  }
  ASSERT_GT(executed, 0u);
  EXPECT_EQ((*backend)->stats().executions, executed);
}

TEST(BackendWiring, ServiceCachesBackendsPerDatabaseAndKind) {
  auto w = LoadWorkload("sdss", 100);
  ASSERT_TRUE(w.ok());
  GenerationService service;
  auto b1 = service.BackendFor(&w->db, BackendKind::kColumnar);
  auto b2 = service.BackendFor(&w->db, BackendKind::kColumnar);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_EQ(b1->get(), b2->get());  // shared instance -> shared plan cache
  auto b3 = service.BackendFor(&w->db, BackendKind::kReference);
  ASSERT_TRUE(b3.ok());
  EXPECT_NE(b1->get(), b3->get());
  EXPECT_EQ(service.backend_stats().size(), 2u);
}

TEST(BackendConcurrency, ParallelExecutionsOnSharedBackend) {
  Database db = TinyDb();
  for (BackendKind kind : AvailableBackends()) {
    auto backend = CreateBackend(kind, &db);
    ASSERT_TRUE(backend.ok());
    std::vector<std::thread> threads;
    std::atomic<size_t> failures{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&backend, &failures] {
        for (int i = 0; i < 25; ++i) {
          for (const std::string& sql : TinyBattery()) {
            if (!(*backend)->ExecuteSql(sql).ok()) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0u) << BackendKindName(kind);
  }
}

}  // namespace
}  // namespace ifgen
