// Traced replays: the benchmark's own spans around calls into the library's
// public functions, so time is attributed to src/ modules from outside.
#include <cmath>
#include <fstream>
#include <limits>
#include <map>

#include "cost/cost_model.h"
#include "cost/delta.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "difftree/match.h"
#include "engine/delta_exec.h"
#include "harness.h"
#include "http/http_client.h"
#include "interface/assignment.h"
#include "rules/rule.h"
#include "runtime/interactive.h"
#include "sql/parser.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/loader.h"

namespace perfbench {

using namespace ifgen;  // NOLINT

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// States evaluated per replayed job at most (the time budget usually
/// ends a job's walk first).
constexpr size_t kMaxStatesPerJob = 400;

/// Mean duration per span name, over spans [from, end).
struct SpanTotals {
  std::map<std::string, double> dur_us;
  std::map<std::string, int64_t> count;

  SpanTotals(const std::vector<Span>& spans, size_t from) {
    for (size_t i = from; i < spans.size(); ++i) {
      dur_us[spans[i].name] += static_cast<double>(spans[i].dur_ns()) / 1e3;
      ++count[spans[i].name];
    }
  }
  double MeanDur(const std::string& n) { return count[n] ? dur_us[n] / count[n] : 0; }
};

/// Exactly the calls StateEvaluator::SampleCost makes on a cache miss, each
/// under a span: the assigner, the transition plan (looked up in the delta
/// cache by tree hash, else PlanTransitions, as StateEvaluator::PlanFor
/// does), then Build + EvaluateWithPlan on the greedy assignment and k-1
/// random ones. `*planned` tells whether PlanTransitions ran.
double TracedSampleCost(const DiffTree& tree, const EvalOptions& eo,
                        const std::vector<Ast>& queries, const CostModel& model,
                        DeltaCostCache* delta, Rng* rng, SpanLog* log, bool* planned) {
  *planned = false;
  Scope sample_span(log, "cost.sample");
  const uint64_t key = eo.state_keyed_sampling ? tree.CanonicalHash() : 0;
  Rng state_rng(HashCombine(eo.sampling_seed, key));
  Rng* draw = eo.state_keyed_sampling ? &state_rng : rng;
  std::unique_ptr<WidgetAssigner> assigner;
  {
    Scope s(log, "interface.assigner");
    assigner = std::make_unique<WidgetAssigner>(tree, eo.constants, delta);
  }
  if (!assigner->viable()) return kInf;
  std::shared_ptr<const TransitionPlan> plan;
  {
    Scope s(log, "cost.plan");
    const uint64_t plan_key = tree.Hash();
    plan = delta->LookupPlan(plan_key);
    if (plan == nullptr) {
      plan = std::make_shared<const TransitionPlan>(
          PlanTransitions(tree, queries, eo.parse_limit));
      delta->StorePlan(plan_key, plan);
      *planned = true;
    }
  }
  auto evaluate = [&](const Assignment& a) {
    Result<WidgetTree> built = Status::OK();
    {
      Scope s(log, "interface.build");
      built = assigner->Build(a);
    }
    if (!built.ok()) return kInf;
    WidgetTree wt = std::move(built).MoveValueUnsafe();
    Scope s(log, "cost.model");
    return model.EvaluateWithPlan(*plan, &wt).total();
  };
  double best = kInf;
  size_t random_draws = eo.k_assignments;
  if (eo.greedy_seed && random_draws > 0) {
    best = std::min(best, evaluate(assigner->MinAppropriatenessAssignment()));
    --random_draws;
  }
  for (size_t i = 0; i < random_draws; ++i) {
    best = std::min(best, evaluate(assigner->RandomAssignment(draw)));
  }
  return best;
}

bool SameCost(double a, double b) { return a == b || (std::isinf(a) && std::isinf(b)); }

}  // namespace

void ReplayGeneration(const std::vector<api::GenerateRequest>& jobs, double budget_s,
                      SpanLog* log, Report* rep) {
  const size_t first_span = log->spans().size();
  std::vector<int> roots;
  int64_t states = 0, mismatches = 0, fanout = 0, enumerations = 0, applies = 0,
          apply_fails = 0;
  const double per_job_s = budget_s / static_cast<double>(std::max<size_t>(1, jobs.size()));
  for (const api::GenerateRequest& req : jobs) {
    roots.push_back(static_cast<int>(log->spans().size()));
    Scope job_span(log, "replay.job");
    const int64_t t0 = NowNs();
    std::vector<Ast> queries;
    DiffTree initial;
    GeneratorOptions opts;
    {
      Scope s(log, "replay.setup");
      auto o = req.options.ToGeneratorOptions();
      auto q = ParseQueries(req.sqls);
      auto init = q.ok() ? BuildInitialTree(*q) : Result<DiffTree>(q.status());
      if (!o.ok() || !init.ok()) {
        rep->Count(false);
        continue;
      }
      opts = *o;
      queries = *q;
      initial = *init;
    }
    EvalOptions eo = opts.MakeEvalOptions();
    EvalOptions ref_opts = eo;
    ref_opts.cache_enabled = false;  // every reference call computes
    StateEvaluator reference(ref_opts, queries);
    DeltaCostCache delta(eo.delta_eval);
    const CostModel model(eo.constants, eo.screen, eo.parse_limit);
    const RuleEngine rules(opts.rules);
    Rng walk(opts.search.seed);

    DiffTree state = initial;
    DiffTree best_state = initial;
    double best_cost = kInf;
    for (size_t n = 0; n < kMaxStatesPerJob &&
                       static_cast<double>(NowNs() - t0) / 1e9 < per_job_s;
         ++n) {
      const uint64_t draw_seed = walk.Next();
      Rng mine_rng(draw_seed), ref_rng(draw_seed);
      bool planned = false;
      const double mine =
          TracedSampleCost(state, eo, queries, model, &delta, &mine_rng, log, &planned);
      double ref = 0;
      {
        Scope s(log, "check.sample_cost");
        ref = reference.SampleCost(state, &ref_rng);
      }
      ++states;
      if (!SameCost(mine, ref)) ++mismatches;
      // The derivations PlanTransitions enumerated, timed apart from it on
      // the same state x query pairs (it stops at an inexpressible query).
      for (size_t qi = 0; planned && qi < queries.size(); ++qi) {
        Scope s(log, "difftree.derivations");
        if (EnumerateDerivations(state, queries[qi], eo.parse_limit).empty()) break;
      }
      if (mine < best_cost) {
        best_cost = mine;
        best_state = state;
      }

      // One rollout-policy step: enumerate, forward bias, apply.
      std::vector<RuleApplication> apps;
      {
        Scope s(log, "rules.enumerate");
        apps = rules.EnumerateApplications(state);
      }
      ++enumerations;
      fanout += static_cast<int64_t>(apps.size());
      std::vector<RuleApplication> forward;
      std::vector<RuleApplication>* pool = &apps;
      if (opts.search.rollout_forward_bias > 0.5 &&
          walk.Bernoulli(opts.search.rollout_forward_bias)) {
        Scope s(log, "rules.forward");
        for (const RuleApplication& a : apps) {
          if (rules.IsForward(a)) forward.push_back(a);
        }
        if (!forward.empty()) pool = &forward;
      }
      bool advanced = false;
      for (int attempt = 0; attempt < 4 && !pool->empty() && !advanced; ++attempt) {
        const size_t pick = walk.UniformIndex(pool->size());
        Result<DiffTree> next = Status::OK();
        {
          Scope s(log, "rules.apply");
          next = rules.Apply(state, (*pool)[pick]);
        }
        ++applies;
        if (next.ok()) {
          state = std::move(next).MoveValueUnsafe();
          advanced = true;
        } else {
          ++apply_fails;
          pool->erase(pool->begin() + static_cast<long>(pick));
        }
      }
      if (!advanced) state = initial;  // dead end: restart the walk
    }
    {
      Scope s(log, "cost.find_best");
      Rng rng(opts.search.seed ^ 0x5eedULL);
      StateEvaluator evaluator(eo, queries);
      rep->Count(evaluator.FindBest(best_state, &rng).ok());
    }
  }

  SpanTotals t(log->spans(), first_span);
  const std::vector<int64_t> self = SelfTimesNs(log->spans());
  double min_coverage = 1.0;
  for (int r : roots) min_coverage = std::min(min_coverage, ChildCoverage(log->spans(), self, r));
  rep->Count(mismatches == 0);
  rep->Count(min_coverage >= 0.9);
  if (mismatches != 0) {
    Report::Note("replay: " + std::to_string(mismatches) + " of " + std::to_string(states) +
                 " states differ from StateEvaluator::SampleCost");
  }
  rep->Set("replay.states", static_cast<double>(states), "count");
  rep->Set("replay.cost_mismatches", static_cast<double>(mismatches), "count");
  rep->Set("replay.span_coverage_min", min_coverage, "ratio");
  rep->Set("rules.enumerate_us", t.MeanDur("rules.enumerate"), "us");
  rep->Set("rules.fanout_mean",
           enumerations ? static_cast<double>(fanout) / static_cast<double>(enumerations) : 0,
           "count");
  rep->Set("rules.apply_us", t.MeanDur("rules.apply"), "us");
  rep->Set("rules.apply_fail_share",
           applies ? static_cast<double>(apply_fails) / static_cast<double>(applies) : 0,
           "ratio");
  rep->Set("difftree.derivations_us", t.MeanDur("difftree.derivations"), "us");
  rep->Set("cost.plan_us", t.MeanDur("cost.plan"), "us");
  rep->Set("cost.model_us", t.MeanDur("cost.model"), "us");
  rep->Set("cost.sample_us", t.MeanDur("cost.sample"), "us");
  rep->Set("cost.find_best_us", t.MeanDur("cost.find_best"), "us");
  rep->Set("interface.assigner_us", t.MeanDur("interface.assigner"), "us");
  rep->Set("interface.build_us", t.MeanDur("interface.build"), "us");
}

void ReplayEvents(Server& server, const std::string& job_id, const std::string& workload,
                  const Walk& script, SpanLog* log, Report* rep) {
  const size_t first_span = log->spans().size();
  api::ApiService& api = server.api();

  // 1. In-process ApplyEvent, its response encoding, and a feed poll.
  std::vector<double> inproc_us;
  api::SessionOpenRequest open;
  open.job_id = job_id;
  std::string sid;
  for (size_t i = 0; i < script.size(); ++i) {
    if (EpisodeStart(i)) {
      if (!sid.empty()) (void)api.CloseSession(sid);
      auto session = api.OpenSession(open);
      rep->Count(session.ok());
      if (!session.ok()) break;
      sid = session->session_id;
    }
    {
      const auto& ev = script[i];
      const int64_t t0 = NowNs();
      Result<api::StepResponse> step = Status::OK();
      {
        Scope s(log, "api.apply_event");
        step = api.ApplyEvent(sid, ev);
      }
      inproc_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      rep->Count(step.ok());
      if (step.ok()) {
        Scope s(log, "api.encode");
        (void)WriteJson(step->ToJson());
      }
      Scope s(log, "runtime.feed_poll");
      (void)api.PollSession(sid, 0);
    }
  }
  if (!sid.empty()) (void)api.CloseSession(sid);

  // 2. The same script over HTTP, paired step by step with (1).
  EventRun over_http = RunEventClients(server.port(), job_id, {script}, 0, script.size());
  double overhead = 0;
  size_t paired = 0;
  for (size_t i = 0; i < over_http.us.size() && i < inproc_us.size(); ++i, ++paired) {
    overhead += over_http.us[i] - inproc_us[i];
  }
  rep->Count(over_http.failed == 0 && over_http.attempted > 0);

  // 3. A bare runtime over a fresh copy of the store, and the backend calls
  //    each step's query makes.
  std::map<std::string, std::pair<double, int64_t>> by_class;
  for (int c = 0; c <= static_cast<int>(TransitionClass::kShapeChange); ++c) {
    by_class[std::string(TransitionClassName(static_cast<TransitionClass>(c)))] = {0, 0};
  }
  int64_t steps = 0, incremental = 0;
  BackendStats engine_stats;
  auto iface = JobInterface(server, job_id);
  auto bundle = LoadWorkload(workload, server.config().workload_rows);
  if (iface != nullptr && bundle.ok()) {
    auto rt_backend = MakeBackendFor(*bundle, BackendKind::kColumnar);
    auto engine = MakeBackendFor(*bundle, BackendKind::kColumnar);
    std::shared_ptr<ExecutionBackend> shared(std::move(rt_backend).MoveValueUnsafe());
    auto rt = InteractiveRuntime::Create(*iface, CostConstants{}, shared);
    rep->Count(rt.ok() && engine.ok());
    if (rt.ok() && engine.ok()) {
      Table prev;
      for (size_t i = 0; i < script.size(); ++i) {
        const auto& ev = script[i];
        if (EpisodeStart(i)) {
          if (i > 0) rt = InteractiveRuntime::Create(*iface, CostConstants{}, shared);
          if (!rt.ok()) break;
          prev = *(*rt)->CurrentResult();
        }
        const int64_t t0 = NowNs();
        Result<InteractiveRuntime::StepReport> step = Status::OK();
        {
          Scope s(log, "runtime.step");
          step = ApplyWalkEvent(rt->get(), ev);
        }
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        rep->Count(step.ok());
        if (!step.ok()) continue;
        const InteractiveRuntime::StepReport& report = *step;
        ++steps;
        if (report.incremental) ++incremental;
        auto& cls = by_class[std::string(TransitionClassName(report.transition))];
        cls.first += us;
        ++cls.second;
        Table cur = *(*rt)->CurrentResult();
        {
          Scope s(log, "runtime.diff");
          (void)DiffTables(prev, cur, {});
        }
        prev = std::move(cur);
        auto query = (*rt)->CurrentQuery();
        if (!query.ok()) continue;
        std::vector<Value> params;
        Result<PreparedQuery*> prepared = Status::OK();
        {
          Scope s(log, "engine.prepare");
          prepared = (*engine)->Prepare(*query, &params);
        }
        if (!prepared.ok()) {
          rep->Count(false);
          continue;
        }
        Scope s(log, "engine.execute");
        rep->Count((*prepared)->Execute(params).ok());
      }
      engine_stats = (*engine)->stats();
    }
  }

  // 4. The transport alone.
  constexpr int kHealthz = 200;
  const int64_t h0 = NowNs();
  for (int i = 0; i < kHealthz; ++i) {
    Scope s(log, "http.healthz");
    auto r = http::Fetch("127.0.0.1", server.port(), "GET", "/v1/healthz");
    rep->Count(r.ok() && r->status == 200);
  }
  const double healthz_us = static_cast<double>(NowNs() - h0) / 1e3 / kHealthz;

  SpanTotals t(log->spans(), first_span);
  std::string mix;
  for (const auto& [name, v] : by_class) mix += " " + name + "=" + std::to_string(v.second);
  Report::Note("event replay steps by class:" + mix);
  for (const auto& [name, v] : by_class) {
    rep->Set("runtime.step_us." + name, v.second ? v.first / static_cast<double>(v.second) : 0,
             "us");
  }
  rep->Set("runtime.incremental_share",
           steps ? static_cast<double>(incremental) / static_cast<double>(steps) : 0, "ratio");
  rep->Set("runtime.diff_us", t.MeanDur("runtime.diff"), "us");
  rep->Set("runtime.feed_poll_us", t.MeanDur("runtime.feed_poll"), "us");
  rep->Set("engine.prepare_us", t.MeanDur("engine.prepare"), "us");
  rep->Set("engine.execute_us", t.MeanDur("engine.execute"), "us");
  const double lookups =
      static_cast<double>(engine_stats.plan_cache_hits + engine_stats.prepares);
  rep->Set("engine.plan_cache_hit_ratio",
           lookups > 0 ? static_cast<double>(engine_stats.plan_cache_hits) / lookups : 0,
           "ratio");
  rep->Set("api.apply_event_us", t.MeanDur("api.apply_event"), "us");
  rep->Set("api.encode_us", t.MeanDur("api.encode"), "us");
  rep->Set("http.event_overhead_us", paired ? overhead / static_cast<double>(paired) : 0, "us");
  rep->Set("http.healthz_us", healthz_us, "us");
  // The event latency and rate of the HTTP replay (percentile rule: p99
  // needs 1000 samples, ten beyond it).
  rep->Set("http.event_us_p50", Median(over_http.us), "us");
  rep->Set("http.event_us_p99", Percentile(over_http.us, TailPerMille(over_http.us.size())),
           "us");
  double busy_us = 0;
  for (double us : over_http.us) busy_us += us;
  rep->Set("http.events_per_s",
           busy_us > 0 ? static_cast<double>(over_http.us.size()) * 1e6 / busy_us : 0, "1/s");
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out << ",";
    out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"ph\":\"X\",\"ts\":"
        << JsonDouble(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":" << JsonDouble(static_cast<double>(s.dur_ns()) / 1e3)
        << ",\"pid\":1,\"tid\":" << s.track << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
