// SDSS explorer: reproduces the paper's headline experiment (Figure 6).
// Generates interfaces from the Listing 1 query log under wide and narrow
// screens, for the full log and for queries 6-8, shows a deliberately poor
// (random-walk) interface for contrast, replays the log through the best
// interface, and executes the current query against a synthetic SDSS
// database to stand in for the visualization.
#include <cstdio>
#include <cstdlib>

#include "core/cooccurrence.h"
#include "core/interface_generator.h"
#include "core/session.h"
#include "interface/render.h"
#include "difftree/enumerate.h"
#include "sql/parser.h"
#include "sql/unparser.h"
#include "workload/sdss.h"

using namespace ifgen;  // NOLINT

namespace {

int64_t BudgetMs(int64_t fallback) {
  const char* env = std::getenv("IFGEN_BUDGET_MS");
  return env != nullptr ? std::atoll(env) : fallback;
}

void ShowInterface(const char* title, const GeneratedInterface& iface,
                   const Screen& screen) {
  std::printf("---- %s ----\n", title);
  std::printf("algorithm=%s  cost=%.2f (M=%.2f U=%.2f)  size=%dx%d  "
              "widgets=%zu  coverage~%.0f\n",
              iface.algorithm.c_str(), iface.cost.total(), iface.cost.m_total,
              iface.cost.u_total, iface.cost.layout_width, iface.cost.layout_height,
              iface.widgets.CountInteractive(), iface.coverage);
  std::printf("%s\n", RenderAscii(iface.widgets, screen).c_str());
}

}  // namespace

int main() {
  const std::vector<std::string> log = SdssListing1();
  std::printf("== SDSS query log (paper, Listing 1) ==\n");
  for (size_t i = 0; i < log.size(); ++i) {
    std::printf("%2zu  %s\n", i + 1, log[i].c_str());
  }
  std::printf("\n");

  const Screen wide{100, 40};
  const Screen narrow{34, 12};

  GeneratorOptions options;
  options.search.time_budget_ms = BudgetMs(4000);
  options.search.seed = 11;

  // Figure 6(a): all queries, wide screen.
  options.screen = wide;
  auto fig6a = GenerateInterface(log, options);
  if (!fig6a.ok()) {
    std::printf("6a failed: %s\n", fig6a.status().ToString().c_str());
    return 1;
  }
  ShowInterface("Fig 6(a): all queries, wide screen", *fig6a, wide);

  // Figure 6(b): all queries, narrow screen.
  options.screen = narrow;
  auto fig6b = GenerateInterface(log, options);
  if (!fig6b.ok()) {
    std::printf("6b failed: %s\n", fig6b.status().ToString().c_str());
    return 1;
  }
  ShowInterface("Fig 6(b): all queries, narrow screen", *fig6b, narrow);

  // Figure 6(c): queries 6-8 only.
  options.screen = wide;
  auto fig6c = GenerateInterface(SdssQueries6To8(), options);
  if (!fig6c.ok()) {
    std::printf("6c failed: %s\n", fig6c.status().ToString().c_str());
    return 1;
  }
  ShowInterface("Fig 6(c): queries 6-8", *fig6c, wide);

  // Figure 6(d): a low-reward interface (pure random walk, tiny budget).
  GeneratorOptions bad = options;
  bad.algorithm = Algorithm::kRandom;
  bad.search.time_budget_ms = std::max<int64_t>(200, BudgetMs(4000) / 20);
  bad.search.max_iterations = 2;
  auto fig6d = GenerateInterface(log, bad);
  if (fig6d.ok()) {
    ShowInterface("Fig 6(d): low-reward interface (random walk)", *fig6d, wide);
  }

  // Ongoing-work feature: co-occurrence statistics separate likely from
  // unlikely widget combinations among the queries the interface can express
  // beyond the log.
  {
    auto parsed = ParseQueries(log);
    if (parsed.ok()) {
      CooccurrenceModel model(fig6a->difftree, *parsed);
      auto coverage = EnumerateQueries(fig6a->difftree, 200, 1);
      auto parts = model.PartitionQueries(coverage, 0.5);
      std::printf("---- Coverage analysis (co-occurrence model) ----\n");
      std::printf("expressible (sampled): %zu   likely: %zu   unlikely: %zu\n",
                  coverage.size(), parts.likely.size(), parts.unlikely.size());
      for (size_t i = 0; i < parts.unlikely.size() && i < 3; ++i) {
        auto sql = Unparse(parts.unlikely[i]);
        std::printf("  e.g. unlikely: %s\n",
                    sql.ok() ? sql->c_str() : parts.unlikely[i].ToSExpr().c_str());
      }
      std::printf("\n");
    }
  }

  // Replay the full log through the Figure 6(a) interface and execute the
  // current query against synthetic SDSS data.
  auto queries = ParseQueries(log);
  auto session = InterfaceSession::Create(*fig6a, options.constants);
  if (queries.ok() && session.ok()) {
    std::printf("---- Replaying Listing 1 through the 6(a) interface ----\n");
    double total = 0.0;
    for (size_t i = 0; i < queries->size(); ++i) {
      auto report = session->LoadQuery((*queries)[i]);
      if (!report.ok()) {
        std::printf("  q%zu inexpressible: %s\n", i + 1,
                    report.status().ToString().c_str());
        continue;
      }
      total += report->total();
      std::printf("  q%-2zu: %zu widget(s), effort %.2f\n", i + 1,
                  report->widgets_changed, report->total());
    }
    std::printf("  total replay effort: %.2f\n\n", total);

    Database db = MakeSdssDatabase(300, 2020);
    auto backend = CreateBackend(BackendKind::kReference, &db);
    auto result = backend.ok() ? session->ExecuteCurrent(backend->get())
                               : Result<Table>(backend.status());
    auto sql = session->CurrentSql();
    if (result.ok() && sql.ok()) {
      std::printf("---- Current query & its result (the 'visualization') ----\n");
      std::printf("%s\n%s\n", sql->c_str(), result->ToString(8).c_str());
    }
  }
  return 0;
}
