// Session pin: digests of seeded interactive walks over generated and
// rollout-state interfaces of three workloads. A walk interleaves query
// loads (log queries, other queries the interface expresses, one it does
// not) with set_any / set_opt / set_multi events, valid and invalid. The
// digest folds every status code, every step's widgets_changed, the exact
// bits of its interaction and navigation costs, and the current SQL after
// each event, so any change to the sticky state, the min-change parse or
// the pricing order fails the test. When a deliberate behavior change moves
// a digest, the failure message prints the replacement row.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <random>

#include "core/interface_generator.h"
#include "core/session.h"
#include "difftree/enumerate.h"
#include "difftree/selection.h"
#include "interface/assignment.h"
#include "rollout_states.h"
#include "runtime/interactive.h"
#include "sql/parser.h"
#include "util/hash.h"
#include "widgets/appropriateness.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

struct SessionPinRow {
  const char* workload;
  uint64_t generated;  ///< walks over the interface GenerateInterface returns
  uint64_t rollouts;   ///< walks over rollout-state interfaces
};

// Recorded while sessions still planned through Derivation trees and string
// selection maps. The flights rollout and sdss generated digests were
// re-recorded once set events on a choice inside a MULTI's copies began to
// re-intern the MULTI's sticky code, so the walks' later loads stopped
// counting that MULTI as changed.
const SessionPinRow kSessionPins[] = {
    {"flights", 0x5ac4724eadc5b8d9ULL, 0x0915ba900d3e54a7ULL},
    {"sdss", 0x1203683893e35bdbULL, 0x5d46281b748f46fbULL},
    {"synthetic", 0x3e31073dba846a27ULL, 0xcb8e2da51aa70758ULL},
};

uint64_t FoldBits(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return HashCombine(h, bits);
}

uint64_t FoldStatus(uint64_t h, const Status& st) {
  return HashCombine(h, static_cast<uint64_t>(st.code()));
}

/// What the walks exercised, so the pin cannot pass vacuously.
struct WalkCounts {
  size_t loads_changing = 0;  ///< loads that changed widgets
  size_t multi_sets = 0;      ///< successful set_multi events
  size_t multi_reloads = 0;   ///< loads that changed widgets after a set_multi
};

/// Folds one seeded walk of `steps` events over `iface` into `h`.
uint64_t Walk(const GeneratedInterface& iface, uint64_t seed, size_t steps,
              WalkCounts* counts) {
  const CostConstants constants;
  Result<InterfaceSession> created = InterfaceSession::Create(iface, constants);
  uint64_t h = FoldStatus(seed, created.status());
  if (!created.ok()) return h;
  InterfaceSession session = std::move(created).MoveValueUnsafe();
  const ChoiceIndex index(session.difftree());
  std::vector<int> anys, opts, multis;
  for (size_t id = 0; id < index.size(); ++id) {
    switch (index.node(id)->kind) {
      case DKind::kAny:
        anys.push_back(static_cast<int>(id));
        break;
      case DKind::kOpt:
        opts.push_back(static_cast<int>(id));
        break;
      case DKind::kMulti:
        multis.push_back(static_cast<int>(id));
        break;
      case DKind::kAll:
        break;
    }
  }
  std::vector<Ast> loads = iface.queries;
  for (Ast& q : EnumerateQueries(session.difftree(), 12)) loads.push_back(std::move(q));
  loads.push_back(*ParseQuery("select zz from nowhere"));

  std::mt19937_64 gen(seed);
  auto pick = [&](size_t n) { return static_cast<size_t>(gen() % n); };
  // A choice id of the given kind most of the time, else any id, one past
  // the last or -1.
  auto id_of = [&](const std::vector<int>& ids) {
    if (!ids.empty() && pick(8) != 0) return ids[pick(ids.size())];
    return static_cast<int>(pick(index.size() + 2)) - 1;
  };
  bool multi_set = false;
  for (size_t step = 0; step < steps; ++step) {
    Status st;
    const size_t kind = pick(8);
    h = HashCombine(h, kind);
    if (kind < 3) {
      Result<InterfaceSession::StepReport> r = session.LoadQuery(loads[pick(loads.size())]);
      st = r.status();
      if (r.ok()) {
        h = HashCombine(h, r->widgets_changed);
        h = FoldBits(h, r->interaction_cost);
        h = FoldBits(h, r->navigation_cost);
        if (r->widgets_changed > 0) {
          ++counts->loads_changing;
          if (multi_set) ++counts->multi_reloads;
        }
        multi_set = false;
      }
    } else if (kind < 5) {
      const int id = id_of(anys);
      const size_t options =
          id >= 0 && static_cast<size_t>(id) < index.size()
              ? index.node(static_cast<size_t>(id))->children.size()
              : 2;
      st = session.SetAnyChoice(id, static_cast<int>(pick(options + 1)));
    } else if (kind < 6) {
      st = session.SetOptPresent(id_of(opts), pick(2) == 0);
    } else {
      const size_t count = pick(16) == 0 ? InterfaceSession::kMaxMultiCount + 1 : pick(4);
      st = session.SetMultiCount(id_of(multis), count);
      if (st.ok()) {
        ++counts->multi_sets;
        multi_set = true;
      }
    }
    h = FoldStatus(h, st);
    Result<std::string> sql = session.CurrentSql();
    h = FoldStatus(h, sql.status());
    if (sql.ok()) h = HashBytes(*sql, h);
  }
  return h;
}

GeneratedInterface Generated(const std::vector<Ast>& queries) {
  GeneratorOptions opt;
  opt.search.time_budget_ms = 0;
  opt.search.max_iterations = 40;
  Result<GeneratedInterface> r = GenerateInterfaceFromAsts(queries, opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).MoveValueUnsafe();
}

/// Rollout states: more MULTIs and OPTs than a generated interface, and
/// queries with several parses. Every state holding a MULTI is kept (few
/// do), and every sixth of the others.
std::vector<DiffTree> PinStates(const std::vector<Ast>& queries) {
  std::vector<DiffTree> pool = RolloutStates(queries, 24, 48, 0.8);
  for (DiffTree& s : RolloutStates(queries, 23, 48, 0.0)) pool.push_back(std::move(s));
  std::vector<DiffTree> states;
  for (size_t i = 0; i < pool.size(); ++i) {
    const ChoiceIndex index(pool[i]);
    bool multi = false;
    for (size_t id = 0; id < index.size(); ++id) {
      multi |= index.node(id)->kind == DKind::kMulti;
    }
    if (multi || i % 6 == 0) states.push_back(pool[i]);
  }
  return states;
}

TEST(SessionPin, SeededWalksAreBitIdentical) {
  for (const SessionPinRow& pin : kSessionPins) {
    const std::vector<Ast> queries = *ParseQueries(LoadWorkload(pin.workload, 10)->log);
    WalkCounts counts;

    const GeneratedInterface generated = Generated(queries);
    uint64_t gen_digest = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      gen_digest = HashCombine(gen_digest, Walk(generated, seed, 120, &counts));
    }

    // Rollout states with two widget trees each.
    const CostConstants constants;
    const std::vector<DiffTree> states = PinStates(queries);
    uint64_t rollout_digest = 0;
    Rng draws(7);
    for (size_t i = 0; i < states.size(); ++i) {
      WidgetAssigner assigner(states[i], constants);
      rollout_digest = HashCombine(rollout_digest, assigner.viable() ? 1 : 0);
      if (!assigner.viable()) continue;
      for (const Assignment& a :
           {assigner.MinAppropriatenessAssignment(), assigner.RandomAssignment(&draws)}) {
        Result<WidgetTree> wt = assigner.Build(a);
        rollout_digest = HashCombine(rollout_digest, wt.ok() ? 1 : 0);
        if (!wt.ok()) continue;
        GeneratedInterface iface;
        iface.queries = queries;
        iface.difftree = states[i];
        iface.widgets = std::move(wt).MoveValueUnsafe();
        rollout_digest = HashCombine(rollout_digest, Walk(iface, 100 + i, 60, &counts));
      }
    }

    char row[160];
    std::snprintf(row, sizeof row, "{\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                  pin.workload, gen_digest, rollout_digest);
    EXPECT_GT(counts.loads_changing, 0u) << pin.workload;
    EXPECT_GT(counts.multi_sets, 0u) << pin.workload;
    EXPECT_GT(counts.multi_reloads, 0u) << pin.workload;
    EXPECT_EQ(gen_digest, pin.generated) << row;
    EXPECT_EQ(rollout_digest, pin.rollouts) << row;
  }
}

// A set event moves one widget: the runtime prices it through the session,
// as one changed id. That must equal the formula it used before — the
// interaction cost of the widget the id's path leads to (a range slider's
// for either of its ids), 0 for an id without a widget, and no navigation.
TEST(SessionPin, SetEventsPriceTheirOneWidget) {
  const CostConstants constants;
  size_t second_ids = 0;  // range sliders set by their second id
  for (const char* workload : {"flights", "sdss", "synthetic"}) {
    Result<WorkloadBundle> w = LoadWorkload(workload, 100);
    ASSERT_TRUE(w.ok());
    const std::vector<Ast> queries = *ParseQueries(w->log);
    std::shared_ptr<ExecutionBackend> backend =
        CreateBackend(BackendKind::kReference, &w->db).MoveValueUnsafe();
    // The generated interface, and the rollout states' greedy and random
    // ones (random assignments pick range sliders).
    std::vector<GeneratedInterface> ifaces = {Generated(queries)};
    auto add = [&](const std::vector<Ast>& log, const DiffTree& tree, const Assignment& a,
                   const WidgetAssigner& assigner) {
      Result<WidgetTree> wt = assigner.Build(a);
      if (!wt.ok()) return;
      GeneratedInterface iface;
      iface.queries = log;
      iface.difftree = tree;
      iface.widgets = std::move(wt).MoveValueUnsafe();
      ifaces.push_back(std::move(iface));
    };
    Rng draws(3);
    for (const DiffTree& s : PinStates(queries)) {
      WidgetAssigner assigner(s, constants);
      if (!assigner.viable()) continue;
      add(queries, s, assigner.MinAppropriatenessAssignment(), assigner);
      add(queries, s, assigner.RandomAssignment(&draws), assigner);
    }
    if (std::string(workload) == "flights") {
      // An adder whose copies hold an ANY, set inside a copy.
      const std::vector<Ast> log = {*ParseQuery("select carrier from flights"),
                                    *ParseQuery("select carrier, origin from flights"),
                                    *ParseQuery("select origin, origin, carrier from flights")};
      DiffTree tree = DiffTree::FromAst(log[0]);
      MutableNodeAt(&tree, {0})->children = {DiffTree::Multi(DiffTree::Any(
          {DiffTree::FromAst(Col("carrier")), DiffTree::FromAst(Col("origin"))}))};
      WidgetAssigner assigner(tree, constants);
      ASSERT_TRUE(assigner.viable());
      add(log, tree, assigner.MinAppropriatenessAssignment(), assigner);
    }
    size_t ids = 0, priced = 0;
    for (const GeneratedInterface& iface : ifaces) {
      auto rt = InteractiveRuntime::Create(iface, constants, backend);
      ASSERT_TRUE(rt.ok()) << rt.status().ToString();
      const WidgetTree& wt = iface.widgets;
      const ChoiceIndex index(iface.difftree);
      ids += index.size();
      for (size_t id = 0; id < index.size(); ++id) {
        const int choice = static_cast<int>(id);
        double want = 0.0;
        const WidgetNode* widget = nullptr;
        auto path = wt.path_by_choice.find(choice);
        if (path != wt.path_by_choice.end()) {
          widget = wt.NodeAtPath(path->second);
          if (widget != nullptr) want = InteractionCost(constants, widget->kind, widget->domain);
        }
        const DiffTree* node = index.node(id);
        // Every log query in turn, until the widget is active in one.
        for (const Ast& q : iface.queries) {
          ASSERT_TRUE((*rt)->LoadQuery(q).ok());
          Result<InteractiveRuntime::StepReport> r =
              node->kind == DKind::kAny
                  ? (*rt)->SetAnyChoice(choice, static_cast<int>(node->children.size()) - 1)
              : node->kind == DKind::kOpt ? (*rt)->SetOptPresent(choice, false)
                                          : (*rt)->SetMultiCount(choice, 2);
          if (!r.ok()) continue;
          const std::string where = std::string(workload) + " id " + std::to_string(id);
          EXPECT_EQ(r->widgets_changed, 1u) << where;
          EXPECT_EQ(r->interaction_cost, want) << where;
          EXPECT_EQ(r->navigation_cost, 0.0) << where;
          ++priced;
          if (widget != nullptr && widget->choice_id2 == choice) ++second_ids;
          break;
        }
      }
    }
    EXPECT_GT(priced, ids / 2) << workload;
  }
  EXPECT_GT(second_ids, 0u);
}

}  // namespace
}  // namespace ifgen
