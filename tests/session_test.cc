#include <gtest/gtest.h>

#include <algorithm>

#include "core/interface_generator.h"
#include "core/session.h"
#include "interface/assignment.h"
#include "sql/parser.h"
#include "workload/sdss.h"

namespace ifgen {
namespace {

GeneratedInterface MakeInterface(const std::vector<std::string>& sqls,
                                 size_t iterations = 30) {
  GeneratorOptions opt;
  opt.screen = {100, 40};
  opt.search.time_budget_ms = 0;
  // 0 would mean "unlimited" to the searcher; the tests always want a
  // bounded, deterministic run.
  opt.search.max_iterations = std::max<size_t>(1, iterations);
  auto r = GenerateInterface(sqls, opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).MoveValueUnsafe();
}

TEST(Session, OpensOnFirstQuery) {
  auto iface = MakeInterface({"select a from t", "select b from t"});
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto sql = session->CurrentSql();
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(*sql, "select a from t");
}

TEST(Session, ReplayExpressesEveryLogQuery) {
  std::vector<std::string> sqls = SdssListing1();
  auto iface = MakeInterface(sqls, 50);
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());
  auto queries = *ParseQueries(sqls);
  for (const Ast& q : queries) {
    auto report = session->LoadQuery(q);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // After loading, the materialized current query equals the target.
    auto current = session->CurrentQuery();
    ASSERT_TRUE(current.ok());
    EXPECT_EQ(*current, q);
  }
}

TEST(Session, RepeatLoadIsFree) {
  auto iface = MakeInterface({"select a from t", "select b from t"});
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());
  Ast q = *ParseQuery("select b from t");
  auto r1 = session->LoadQuery(q);
  ASSERT_TRUE(r1.ok());
  auto r2 = session->LoadQuery(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->widgets_changed, 0u);
  EXPECT_DOUBLE_EQ(r2->total(), 0.0);
}

TEST(Session, RejectsInexpressibleQuery) {
  auto iface = MakeInterface({"select a from t", "select b from t"});
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->LoadQuery(*ParseQuery("select zz from qq")).ok());
}

TEST(Session, WidgetManipulationChangesQuery) {
  // A barely-searched interface keeps the widget structure simple enough
  // to assert on (one or two ANY widgets).
  auto iface = MakeInterface({"select a from t", "select b from t"}, 1);
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());

  // Find an ANY choice id in the difftree.
  ChoiceIndex index(session->difftree());
  int any_id = -1;
  for (size_t i = 0; i < index.size(); ++i) {
    if (index.node(i)->kind == DKind::kAny) {
      any_id = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(any_id, 0);
  size_t n_opts = index.node(static_cast<size_t>(any_id))->children.size();
  std::string before = *session->CurrentSql();
  bool changed = false;
  for (size_t opt = 0; opt < n_opts; ++opt) {
    ASSERT_TRUE(session->SetAnyChoice(any_id, static_cast<int>(opt)).ok());
    auto sql = session->CurrentSql();
    ASSERT_TRUE(sql.ok());
    changed |= *sql != before;
  }
  EXPECT_TRUE(changed);
  EXPECT_FALSE(session->SetAnyChoice(any_id, 99).ok());
  EXPECT_FALSE(session->SetAnyChoice(12345, 0).ok());
}

TEST(Session, ToggleOptionalClause) {
  // Interface over queries with and without WHERE: find the OPT widget and
  // flip it; the WHERE clause must appear/disappear.
  auto iface = MakeInterface(
      {"select a from t where x = 1", "select a from t"}, 40);
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());
  ChoiceIndex index(session->difftree());
  int opt_id = -1;
  for (size_t i = 0; i < index.size(); ++i) {
    if (index.node(i)->kind == DKind::kOpt) opt_id = static_cast<int>(i);
  }
  if (opt_id < 0) {
    GTEST_SKIP() << "search produced a non-OPT factoring for this seed";
  }
  ASSERT_TRUE(session->LoadQuery(*ParseQuery("select a from t where x = 1")).ok());
  ASSERT_TRUE(session->SetOptPresent(opt_id, false).ok());
  EXPECT_EQ(*session->CurrentSql(), "select a from t");
  ASSERT_TRUE(session->SetOptPresent(opt_id, true).ok());
  EXPECT_EQ(*session->CurrentSql(), "select a from t where x = 1");
}

TEST(Session, ExecutesCurrentQueryAgainstDatabase) {
  std::vector<std::string> sqls = SdssQueries6To8();
  auto iface = MakeInterface(sqls, 40);
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());
  Database db = MakeSdssDatabase(200, 5);
  auto backend = CreateBackend(BackendKind::kReference, &db);
  ASSERT_TRUE(backend.ok());
  auto result = session->ExecuteCurrent(backend->get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->num_rows(), 10u);  // query 6 has TOP 10
}

TEST(Session, ReplayReportsMatchCostModel) {
  // The session's replayed total effort equals the cost model's U total
  // (same transition machinery).
  std::vector<std::string> sqls = {"select a from t where x between 1 and 5",
                                   "select b from t where x between 2 and 9",
                                   "select b from t"};
  auto iface = MakeInterface(sqls, 40);
  auto session = InterfaceSession::Create(iface, {});
  ASSERT_TRUE(session.ok());
  auto queries = *ParseQueries(sqls);
  auto reports = session->ReplayLog(queries);
  ASSERT_TRUE(reports.ok());
  double replay_u = 0.0;
  for (size_t i = 1; i < reports->size(); ++i) replay_u += (*reports)[i].total();
  EXPECT_NEAR(replay_u, iface.cost.u_total, 1e-9);
}

// A choice inside a MULTI's copies has no sticky code of its own, so a set
// event on it must move the MULTI's: loading the query the widgets then
// show changes nothing.
TEST(Session, SetEventsInsideAMultiKeepItsCodeCurrent) {
  const std::vector<Ast> log = {*ParseQuery("select carrier from flights"),
                                *ParseQuery("select origin from flights")};
  // PROJECT(MULTI(ANY(carrier, origin))): the MULTI is id 0, its ANY id 1.
  DiffTree tree = DiffTree::FromAst(log[0]);
  MutableNodeAt(&tree, {0})->children = {DiffTree::Multi(DiffTree::Any(
      {DiffTree::FromAst(Col("carrier")), DiffTree::FromAst(Col("origin"))}))};
  const CostConstants constants;
  const WidgetAssigner assigner(tree, constants);
  GeneratedInterface iface;
  iface.queries = {log[0]};
  iface.difftree = tree;
  iface.widgets = *assigner.Build(assigner.MinAppropriatenessAssignment());
  auto session = InterfaceSession::Create(iface, constants);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->SetAnyChoice(1, 1).ok());
  EXPECT_EQ(*session->CurrentSql(), "select origin from flights");
  auto report = session->LoadQuery(log[1]);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->widgets_changed, 0u);
  EXPECT_EQ(report->interaction_cost, 0.0);
  // Back to the first query: the MULTI's one widget changes.
  report = session->LoadQuery(log[0]);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->widgets_changed, 1u);
}

}  // namespace
}  // namespace ifgen
