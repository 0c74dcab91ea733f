// Flights dashboard: the second-domain workload (a flight-delay analysis
// session with GROUP BY aggregations). Generates an interface, drives it
// through the runtime, executes the current query against a synthetic
// flights table, and renders the result as an ASCII bar chart — the whole
// interactive-analysis loop the paper motivates, in one binary.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/interface_generator.h"
#include "core/session.h"
#include "interface/render.h"
#include "sql/parser.h"
#include "util/string_util.h"
#include "workload/flights.h"

using namespace ifgen;  // NOLINT

namespace {

void BarChart(const Table& t) {
  // Two-column (label, number) results render as bars.
  if (t.num_columns() < 2 || t.num_rows() == 0) {
    std::printf("%s\n", t.ToString(12).c_str());
    return;
  }
  double max_v = 1e-9;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.At(r, 1).is_numeric()) {
      max_v = std::max(max_v, std::abs(t.At(r, 1).AsDouble()));
    }
  }
  for (size_t r = 0; r < std::min<size_t>(t.num_rows(), 12); ++r) {
    if (!t.At(r, 1).is_numeric()) continue;
    double v = t.At(r, 1).AsDouble();
    int len = static_cast<int>(40.0 * std::abs(v) / max_v);
    std::printf("  %-8s %8.1f |%s\n", Ellipsize(t.At(r, 0).ToString(), 8).c_str(), v,
                std::string(static_cast<size_t>(len), '#').c_str());
  }
}

}  // namespace

int main() {
  const char* env = std::getenv("IFGEN_BUDGET_MS");
  int64_t budget = env != nullptr ? std::atoll(env) : 3000;

  std::printf("== Flights analysis log ==\n");
  for (const std::string& sql : FlightsLog()) std::printf("  %s\n", sql.c_str());

  GeneratorOptions options;
  options.screen = {90, 30};
  options.search.time_budget_ms = budget;
  options.search.seed = 21;
  auto iface = GenerateInterface(FlightsLog(), options);
  if (!iface.ok()) {
    std::printf("generation failed: %s\n", iface.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Generated dashboard (cost %.2f, %zu widgets, coverage ~%.0f) ==\n",
              iface->cost.total(), iface->widgets.CountInteractive(),
              iface->coverage);
  std::printf("%s\n", RenderAscii(iface->widgets, options.screen).c_str());

  Database db = MakeFlightsDatabase(3000, 99);
  auto backend = CreateBackend(BackendKind::kReference, &db);
  if (!backend.ok()) {
    std::printf("backend failed: %s\n", backend.status().ToString().c_str());
    return 1;
  }
  auto session = InterfaceSession::Create(*iface, options.constants);
  if (!session.ok()) {
    std::printf("session failed: %s\n", session.status().ToString().c_str());
    return 1;
  }

  // Simulate the analyst stepping through three dashboard states.
  auto queries = *ParseQueries(FlightsLog());
  for (size_t i : {size_t{0}, size_t{3}, size_t{5}}) {
    auto report = session->LoadQuery(queries[i]);
    if (!report.ok()) {
      std::printf("q%zu: %s\n", i + 1, report.status().ToString().c_str());
      continue;
    }
    auto sql = session->CurrentSql();
    auto result = session->ExecuteCurrent(backend->get());
    std::printf("== Dashboard state %zu (effort %.2f: %zu widget(s)) ==\n", i + 1,
                report->total(), report->widgets_changed);
    std::printf("query: %s\n", sql.ok() ? sql->c_str() : "?");
    if (result.ok()) {
      BarChart(*result);
    } else {
      std::printf("execution failed: %s\n", result.status().ToString().c_str());
    }
    std::printf("\n");
  }

  // Write the HTML rendering next to the binary for browser inspection.
  std::string html = RenderHtml(iface->widgets, "flights dashboard");
  FILE* f = std::fopen("flights_dashboard.html", "w");
  if (f != nullptr) {
    std::fwrite(html.data(), 1, html.size(), f);
    std::fclose(f);
    std::printf("wrote flights_dashboard.html\n");
  }
  return 0;
}
