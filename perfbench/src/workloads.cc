// The three workloads, their seeded inputs, the closed-loop clients and the
// correctness checks. Timed runs keep the program's tracing off; the traced
// run (--trace 1) is separate and reports per-layer metrics only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <thread>

#include "core/interface_generator.h"
#include "core/json_export.h"
#include "core/session.h"
#include "difftree/selection.h"
#include "harness.h"
#include "http/http_client.h"
#include "obs/trace.h"
#include "runtime/interactive.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/flights.h"
#include "workload/loader.h"
#include "workload/sdss.h"

namespace perfbench {

using namespace ifgen;  // NOLINT

namespace {

constexpr char kHost[] = "127.0.0.1";
/// Set-ups per run; setup_s is their median. sdss-interact takes its
/// generation metrics from its set-ups, so it sets up more often.
constexpr int kSetupRounds = 5;
constexpr int kInteractSetupRounds = 7;
/// Every set-up ends by generating the SDSS dashboard that sessions open.
/// Events always target an SDSS interface: on flights interfaces the shared
/// backend's plan cache answers some shapes with a plan of another
/// parameter count ("expected 3 parameters, got 1"), and a workload must
/// not fail. A p99 needs kMinEvents samples, ten beyond it.
constexpr size_t kMinEvents = 1000;
/// Generation jobs scale with --seconds at these nominal per-job times,
/// measured when the benchmark was defined (4-core x86 VM): sdss time to
/// target averages 3.4 s over search seeds 1-24; a warm flights job ~0.4 s.
constexpr double kSdssSecondsPerJob = 3.4;
constexpr double kFlightsSecondsPerJob = 0.4;
/// Flights jobs share this search seed (one cost identity); the cold job
/// that fills the store uses its own cap, outside the warm caps' range.
constexpr int64_t kFlightsSearchSeed = 11;
constexpr int64_t kFlightsColdCap = 420;
constexpr int64_t kFlightsCapBase = 120;
constexpr int64_t kFlightsCapStep = 2;
/// `sdss-interact` serves this many rows per table, so engine execution and
/// result maintenance, not the loopback transport, dominate an event.
constexpr size_t kInteractRows = 10000;
constexpr size_t kInteractClients = 2;
/// Target M+U for `sdss-gen` jobs: the best cost on Listing 1.
constexpr double kSdssTarget = 20.145;
/// Longest walk a client may need; walks are generated up front.
constexpr size_t kMaxWalk = 40000;

std::string JobPath(const std::string& id) { return "/v1/jobs/" + id; }

bool Terminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

api::GenerateRequest SdssRequest(int64_t seed, int64_t cap) {
  api::GenerateRequest req;
  req.workload = "sdss";
  req.sqls = SdssListing1();
  req.options.num_threads = 1;
  req.options.time_budget_ms = 0;
  req.options.max_iterations = cap;
  req.options.seed = seed;
  return req;
}

api::GenerateRequest FlightsRequest(int64_t cap) {
  api::GenerateRequest req;
  req.workload = "flights";
  req.sqls = FlightsLog();
  req.options.num_threads = 2;
  req.options.parallel_mode = "root";
  req.options.time_budget_ms = 0;
  req.options.max_iterations = cap;
  req.options.seed = kFlightsSearchSeed;
  req.options.experience = true;
  return req;
}

/// Workload-specific stream of the run's seed.
Rng WorkloadRng(uint64_t seed, uint64_t stream) { return Rng(HashCombine(seed, stream)); }

}  // namespace

// ---------------------------------------------------------------------------
// Server and HTTP.

Result<std::unique_ptr<Server>> Server::Start(const ServerConfig& cfg) {
  std::unique_ptr<Server> s(new Server());
  s->cfg_ = cfg;
  api::ApiService::Options o;
  o.service.cache_capacity = cfg.cache_capacity;
  o.workload_rows = cfg.workload_rows;
  if (cfg.experience) {
    s->store_ = std::make_shared<learn::ExperienceStore>();
    o.service.experience = s->store_;
  }
  IFGEN_ASSIGN_OR_RETURN(s->api_, api::ApiService::Create(o));
  s->http_ = std::make_unique<http::ApiHttpFrontend>(s->api_.get());
  http::ApiHttpFrontend::Options ho;
  ho.http.num_threads = 4;
  IFGEN_RETURN_NOT_OK(s->http_->Start(ho));
  s->port_ = s->http_->port();
  return s;
}

Server::~Server() {
  if (http_ != nullptr) http_->Stop();
  http_.reset();
  api_.reset();
}

Result<JsonValue> HttpJson(int port, const std::string& method, const std::string& target,
                           const std::string& body) {
  IFGEN_ASSIGN_OR_RETURN(http::ClientResponse r,
                         http::Fetch(kHost, port, method, target, body, 60000));
  if (r.status < 200 || r.status >= 300) {
    return Status::Internal("HTTP " + std::to_string(r.status) + " on " + method + " " +
                            target + ": " + r.body.substr(0, 300));
  }
  return ParseJson(r.body);
}

namespace {

/// GET /v1/metrics, summed over label sets per metric name.
std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> out;
  auto r = http::Fetch(kHost, port, "GET", "/v1/metrics", "", 60000);
  if (!r.ok() || r->status != 200) return out;
  std::istringstream in(r->body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) continue;
    out[line.substr(0, name_end)] += std::strtod(line.c_str() + value_at + 1, nullptr);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Jobs.

namespace {

/// POST /v1/generate, then long-poll GET /v1/jobs/{id} until terminal.
JobResult RunJob(int port, const api::GenerateRequest& req) {
  JobResult out;
  const std::string body = WriteJson(req.ToJson());
  const int64_t t0 = NowNs();
  auto accepted = HttpJson(port, "POST", "/v1/generate", body);
  if (!accepted.ok()) {
    out.error = accepted.status().ToString();
    return out;
  }
  auto acc = api::GenerateAccepted::FromJson(*accepted);
  if (!acc.ok()) {
    out.error = acc.status().ToString();
    return out;
  }
  out.job_id = acc->job_id;
  while ((NowNs() - t0) / 1e9 < 170) {
    auto st = HttpJson(port, "GET", JobPath(out.job_id) + "?wait_ms=5000");
    if (!st.ok()) {
      out.error = st.status().ToString();
      return out;
    }
    auto status = api::JobStatusResponse::FromJson(*st);
    if (!status.ok()) {
      out.error = status.status().ToString();
      return out;
    }
    if (Terminal(status->state)) {
      out.gen_ms = static_cast<double>(NowNs() - t0) / 1e6;
      out.status = std::move(status).MoveValueUnsafe();
      out.ok = out.status.state == "done" && out.result() != nullptr;
      if (!out.ok) out.error = "job ended " + out.status.state;
      return out;
    }
  }
  out.error = "job did not finish in time";
  return out;
}

}  // namespace

std::shared_ptr<const GeneratedInterface> JobInterface(Server& server,
                                                       const std::string& job_id) {
  if (job_id.size() < 3) return nullptr;
  const uint64_t id = std::strtoull(job_id.c_str() + 2, nullptr, 10);
  auto info = server.api().generation_service().GetJob(id);
  return info.ok() ? info->result : nullptr;
}

namespace {

/// `sdss-gen`: the Listing-1 log under a seeded order of search seeds, each
/// with a seeded backstop cap.
std::vector<api::GenerateRequest> SdssGenJobs(uint64_t seed, int seconds) {
  // The search-seed pool is fixed and only its order and the backstop caps
  // come from the workload seed: time to target spans three orders of
  // magnitude across search seeds (14 ms to 6.1 s), so drawing the seeds
  // themselves would make the run measure which seeds it drew.
  const size_t pool = std::clamp<size_t>(
      static_cast<size_t>(std::llround(seconds / kSdssSecondsPerJob)), 2, 24);
  std::vector<int64_t> search_seeds;
  for (size_t i = 1; i <= pool; ++i) search_seeds.push_back(static_cast<int64_t>(i));
  Rng rng = WorkloadRng(seed, 0x5d55);
  rng.Shuffle(&search_seeds);
  std::vector<api::GenerateRequest> jobs;
  for (int64_t s : search_seeds) {
    api::GenerateRequest req = SdssRequest(s, rng.UniformInt(600, 900));
    req.options.target_cost = kSdssTarget;
    jobs.push_back(std::move(req));
  }
  return jobs;
}

/// `flights-warm`: one cost identity, distinct caps in seeded order.
std::vector<api::GenerateRequest> FlightsWarmJobs(uint64_t seed, int seconds) {
  const size_t n = std::clamp<size_t>(
      static_cast<size_t>(std::llround(seconds / kFlightsSecondsPerJob)), 4, 100);
  std::vector<int64_t> caps;
  for (size_t i = 0; i < n; ++i) {
    caps.push_back(kFlightsCapBase + kFlightsCapStep * static_cast<int64_t>(i));
  }
  Rng rng = WorkloadRng(seed, 0xf1a7);
  rng.Shuffle(&caps);
  std::vector<api::GenerateRequest> jobs;
  for (int64_t cap : caps) jobs.push_back(FlightsRequest(cap));
  return jobs;
}

/// The cold job that fills the experience store during `flights-warm` set-up.
api::GenerateRequest FlightsColdJob() { return FlightsRequest(kFlightsColdCap); }

/// The SDSS dashboard every set-up generates and every event phase serves.
api::GenerateRequest DashboardJob() { return SdssRequest(5, 30); }

// ---------------------------------------------------------------------------
// Widget events.

/// A seeded walk of `n` widget events over `iface` in episodes that each
/// start at the interface's first query. Every event targets a widget that
/// is visible in the state the previous events left: set_any on ANY
/// choices, set_opt on OPT choices.
Walk MakeWalk(const GeneratedInterface& iface, const CostConstants& constants,
              uint64_t seed, size_t n) {
  Walk walk;
  auto first = InterfaceSession::Create(iface, constants);
  if (!first.ok()) return walk;
  auto session = std::make_unique<InterfaceSession>(std::move(first).MoveValueUnsafe());
  const ChoiceIndex index(session->difftree());
  std::vector<api::WidgetEventRequest> candidates;
  for (size_t id = 0; id < index.size(); ++id) {
    const DiffTree* node = index.node(id);
    api::WidgetEventRequest ev;
    ev.choice_id = static_cast<int64_t>(id);
    if (node->kind == DKind::kAny && node->children.size() > 1) {
      ev.kind = "set_any";
      for (size_t o = 0; o < node->children.size(); ++o) {
        ev.option_index = static_cast<int64_t>(o);
        candidates.push_back(ev);
      }
    } else if (node->kind == DKind::kOpt) {
      ev.kind = "set_opt";
      for (bool present : {false, true}) {
        ev.present = present;
        candidates.push_back(ev);
      }
    }
  }
  if (candidates.empty()) return walk;
  Rng rng(seed);
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  while (walk.size() < n) {
    if (EpisodeStart(walk.size()) && !walk.empty()) {
      auto fresh = InterfaceSession::Create(iface, constants);
      if (!fresh.ok()) break;
      *session = std::move(fresh).MoveValueUnsafe();
    }
    // Uniform over the candidates visible now: the first that applies in a
    // fresh random order. Setting a hidden widget fails without side effects.
    rng.Shuffle(&order);
    bool stepped = false;
    for (size_t i : order) {
      const api::WidgetEventRequest& ev = candidates[i];
      Status st = ev.kind == "set_any"
                      ? session->SetAnyChoice(static_cast<int>(ev.choice_id),
                                              static_cast<int>(ev.option_index))
                      : session->SetOptPresent(static_cast<int>(ev.choice_id), ev.present);
      if (st.ok()) {
        walk.push_back(ev);
        stepped = true;
        break;
      }
    }
    if (!stepped) break;
  }
  return walk;
}

/// Order-insensitive digest of a table in its wire form.
uint64_t TableDigest(api::TableDto table) {
  std::sort(table.rows.begin(), table.rows.end());
  return HashBytes(WriteJson(table.ToJson()));
}

}  // namespace

EventRun RunEventClients(int port, const std::string& job_id, const std::vector<Walk>& walks,
                         double seconds, size_t min_events) {
  EventRun run;
  const size_t n = walks.size();
  run.executed.resize(n, 0);
  std::vector<std::vector<double>> lat(n);
  std::vector<std::vector<Episode>> episodes(n);
  std::vector<int64_t> failed(n, 0), open_failed(n, 0);
  std::vector<std::vector<std::string>> bodies(n);
  for (size_t c = 0; c < n; ++c) {
    for (const auto& ev : walks[c]) bodies[c].push_back(WriteJson(ev.ToJson()));
    lat[c].reserve(bodies[c].size());
  }
  api::SessionOpenRequest open;
  open.job_id = job_id;
  const std::string open_body = WriteJson(open.ToJson());

  const int64_t t0 = NowNs();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < n; ++c) {
    clients.emplace_back([&, c] {
      std::string session, target;
      Episode episode;
      episode.client = c;
      // The session's final table, for the check against re-execution.
      auto close_episode = [&](size_t end) {
        if (session.empty()) return;
        episode.end = end;
        auto served = HttpJson(port, "GET", "/v1/sessions/" + session + "/table");
        auto dto = served.ok() ? api::TableDto::FromJson(*served)
                               : Result<api::TableDto>(served.status());
        episode.fetched = dto.ok();
        episode.table_digest = dto.ok() ? TableDigest(*dto) : 0;
        episodes[c].push_back(episode);
        (void)http::Fetch(kHost, port, "DELETE", "/v1/sessions/" + session);
        session.clear();
      };
      for (size_t i = 0; i < bodies[c].size(); ++i) {
        if (i >= min_events && static_cast<double>(NowNs() - t0) / 1e9 >= seconds) {
          break;
        }
        if (EpisodeStart(i)) {
          close_episode(i);
          auto opened = HttpJson(port, "POST", "/v1/sessions", open_body);
          auto resp = opened.ok() ? api::SessionOpenResponse::FromJson(*opened)
                                  : Result<api::SessionOpenResponse>(opened.status());
          if (!resp.ok()) {
            Report::Note("session open failed: " + resp.status().ToString());
            ++open_failed[c];
            break;
          }
          session = resp->session_id;
          episode.begin = i;
          target = "/v1/sessions/" + session + "/events";
        }
        const int64_t s = NowNs();
        auto r = http::Fetch(kHost, port, "POST", target, bodies[c][i], 60000);
        bool ok = r.ok() && r->status == 200;
        if (ok) {
          auto j = ParseJson(r->body);
          ok = j.ok() && api::StepResponse::FromJson(*j).ok();
        }
        lat[c].push_back(static_cast<double>(NowNs() - s) / 1e3);
        run.executed[c] = i + 1;
        if (!ok) ++failed[c];
      }
      close_episode(run.executed[c]);
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < n; ++c) {
    run.us.insert(run.us.end(), lat[c].begin(), lat[c].end());
    run.episodes.insert(run.episodes.end(), episodes[c].begin(), episodes[c].end());
    run.attempted += static_cast<int64_t>(lat[c].size()) + open_failed[c];
    run.failed += failed[c] + open_failed[c];
    if (run.executed[c] == walks[c].size() && seconds > 0) {
      Report::Note("client " + std::to_string(c) + " ran out of walk");
    }
  }
  return run;
}

Result<InteractiveRuntime::StepReport> ApplyWalkEvent(InteractiveRuntime* rt,
                                                      const api::WidgetEventRequest& ev) {
  return ev.kind == "set_any" ? rt->SetAnyChoice(static_cast<int>(ev.choice_id),
                                                 static_cast<int>(ev.option_index))
                              : rt->SetOptPresent(static_cast<int>(ev.choice_id), ev.present);
}

namespace {

/// Re-executes every episode's events on a delta-off runtime over a freshly
/// loaded copy of the store and compares its final table, in wire form, with
/// the one the session served. Runs on up to four threads, each with its own
/// store. Returns the number of episodes that disagree.
int CheckEpisodes(const GeneratedInterface& iface, const std::string& workload, size_t rows,
                  const std::vector<Walk>& walks, const std::vector<Episode>& episodes) {
  std::atomic<size_t> next{0};
  std::atomic<int> bad{0};
  auto worker = [&] {
    auto bundle = LoadWorkload(workload, rows);
    auto backend = bundle.ok() ? MakeBackendFor(*bundle, BackendKind::kColumnar)
                               : Result<std::unique_ptr<ExecutionBackend>>(bundle.status());
    std::shared_ptr<ExecutionBackend> shared;
    if (backend.ok()) shared = std::move(backend).MoveValueUnsafe();
    InteractiveRuntime::Options full;
    full.enable_delta = false;
    for (size_t e; (e = next.fetch_add(1)) < episodes.size();) {
      const Episode& ep = episodes[e];
      auto rt = shared != nullptr
                    ? InteractiveRuntime::Create(iface, CostConstants{}, shared, full)
                    : Result<std::unique_ptr<InteractiveRuntime>>(backend.status());
      bool ok = rt.ok() && ep.fetched;
      for (size_t i = ep.begin; ok && i < ep.end; ++i) {
        ok = ApplyWalkEvent(rt->get(), walks[ep.client][i]).ok();
      }
      auto expected = ok ? (*rt)->CurrentResult() : Result<Table>(Status::Internal("replay"));
      // Through the wire form, as the served table came.
      auto wire = expected.ok()
                      ? ParseJson(WriteJson(api::TableDto::FromTable(*expected).ToJson()))
                      : Result<JsonValue>(expected.status());
      auto dto = wire.ok() ? api::TableDto::FromJson(*wire) : Result<api::TableDto>(wire.status());
      if (!dto.ok() || TableDigest(*dto) != ep.table_digest) {
        Report::Note("episode at walk " + std::to_string(ep.client) + ":" +
                     std::to_string(ep.begin) + " differs from full re-execution");
        bad.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min<size_t>(4, episodes.size()); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return bad.load();
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload definitions.

namespace {

enum class Kind { kSdssGen, kFlightsWarm, kSdssInteract };

struct Plan {
  Kind kind = Kind::kSdssGen;
  ServerConfig server;
  std::vector<api::GenerateRequest> setup_jobs;  ///< run in every set-up
  std::vector<api::GenerateRequest> jobs;        ///< the timed generation jobs
  int setup_rounds = kSetupRounds;
};

Plan MakePlan(Kind kind, const RunOptions& o) {
  Plan p;
  p.kind = kind;
  switch (kind) {
    case Kind::kSdssGen:
      p.jobs = SdssGenJobs(o.seed, o.seconds);
      break;
    case Kind::kFlightsWarm:
      p.server.cache_capacity = 64;
      p.server.experience = true;
      p.setup_jobs = {FlightsColdJob()};
      p.jobs = FlightsWarmJobs(o.seed, o.seconds);
      break;
    case Kind::kSdssInteract:
      p.server.workload_rows = kInteractRows;
      p.setup_rounds = kInteractSetupRounds;
      break;
  }
  p.setup_jobs.push_back(DashboardJob());
  return p;
}

/// A finished job whose interface has a valid, finite cost: every log query
/// is expressible and the layout fits.
bool ValidCost(const JobResult& r) {
  if (!r.ok) return false;
  const JsonValue& cost = r.result()->cost;
  const JsonValue* total = cost.Find("total");
  const JsonValue* valid = cost.Find("valid");
  return total != nullptr && total->is_number() && std::isfinite(total->AsDouble()) &&
         valid != nullptr && valid->is_bool() && valid->AsBool();
}

/// Per-kind success rule for a timed generation job.
bool JobOk(Kind kind, const JobResult& r) {
  if (!ValidCost(r)) return false;
  switch (kind) {
    case Kind::kSdssGen:
      return r.result()->stats.stop_reason == "target_cost";
    case Kind::kFlightsWarm:
      return !r.status.cache_hit;
    case Kind::kSdssInteract:
      return true;
  }
  return false;
}

double CostTotal(const JobResult& r) {
  const JsonValue* total = r.result() ? r.result()->cost.Find("total") : nullptr;
  return total != nullptr && total->is_number() ? total->AsDouble() : std::nan("");
}

struct Setup {
  std::unique_ptr<Server> server;
  std::vector<JobResult> jobs;  ///< every set-up round's jobs
  double setup_s = 0;
};

/// Sets up `rounds` times and keeps the last server; setup_s is the median.
bool DoSetup(const Plan& p, int rounds, Report* rep, Setup* out) {
  std::vector<double> secs;
  for (int r = 0; r < rounds; ++r) {
    out->server.reset();
    const int64_t t0 = NowNs();
    auto server = Server::Start(p.server);
    if (!server.ok()) {
      Report::Note("server start failed: " + server.status().ToString());
      return false;
    }
    out->server = std::move(server).MoveValueUnsafe();
    for (const auto& req : p.setup_jobs) {
      JobResult jr = RunJob(out->server->port(), req);
      rep->Count(ValidCost(jr));
      if (!jr.ok) {
        Report::Note("set-up job failed: " + jr.error);
        return false;
      }
      out->jobs.push_back(std::move(jr));
    }
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  out->setup_s = Median(secs);
  return true;
}

/// Byte-equality of each sdss-gen result with in-process GenerateInterface
/// on the same spec (the serial bit-identity contract). Runs on up to four
/// threads after the timed region. Returns the number of mismatches.
int CheckGenerateIdentity(const std::vector<api::GenerateRequest>& reqs,
                          const std::vector<JobResult>& results) {
  std::atomic<size_t> next{0};
  std::atomic<int> bad{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < reqs.size();) {
      const api::GenerateResponse* got = results[i].result();
      auto opts = reqs[i].options.ToGeneratorOptions();
      auto iface = opts.ok() ? GenerateInterface(reqs[i].sqls, *opts)
                             : Result<GeneratedInterface>(opts.status());
      const bool same = got != nullptr && iface.ok() &&
                        WriteJson(DiffTreeToJsonValue(iface->difftree)) ==
                            WriteJson(got->difftree) &&
                        WriteJson(CostToJsonValue(iface->cost)) == WriteJson(got->cost);
      if (!same) {
        Report::Note("job " + results[i].job_id + " differs from in-process generation");
        bad.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min<size_t>(4, reqs.size()); ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return bad.load();
}

void ReportGen(const std::vector<const JobResult*>& jobs, Report* rep) {
  std::vector<double> ms, costs;
  double iters = 0, elapsed_ms = 0;
  for (const JobResult* j : jobs) {
    if (!j->ok) continue;
    ms.push_back(j->gen_ms);
    costs.push_back(CostTotal(*j));
    iters += static_cast<double>(j->result()->stats.iterations);
    elapsed_ms += static_cast<double>(j->result()->stats.elapsed_ms);
  }
  rep->Set("gen_ms_p50", Median(ms), "ms");
  rep->Set("gen_ms_mean", Mean(ms), "ms");
  rep->Set("search_iters_per_s", elapsed_ms > 0 ? iters / (elapsed_ms / 1e3) : 0, "1/s");
  rep->Set("final_cost", Mean(costs), "cost");
  Report::Note("generation: " + std::to_string(ms.size()) + " jobs, " +
               std::to_string(static_cast<int64_t>(iters)) + " iterations");
}

std::vector<Walk> MakeWalks(const GeneratedInterface& iface, uint64_t seed, size_t clients,
                            size_t len) {
  std::vector<Walk> walks;
  for (size_t c = 0; c < clients; ++c) {
    walks.push_back(MakeWalk(iface, CostConstants{}, HashCombine(seed, 0xe7e7 + c), len));
  }
  return walks;
}

/// Counts an event phase's operations and checks every episode's table.
void CheckEvents(Server& server, const std::string& job_id, const std::vector<Walk>& walks,
                 const EventRun& ev, Report* rep) {
  for (int64_t i = 0; i < ev.attempted; ++i) rep->Count(i >= ev.failed);
  auto iface = JobInterface(server, job_id);
  const size_t n = ev.episodes.size();
  const int bad = iface == nullptr ? static_cast<int>(n)
                                   : CheckEpisodes(*iface, "sdss", server.config().workload_rows,
                                                   walks, ev.episodes);
  for (size_t e = 0; e < n; ++e) rep->Count(static_cast<int>(e) >= bad);
  Report::Note("checked " + std::to_string(n) + " episodes against full re-execution");
}

/// An event phase plus its checks (traced run).
EventRun RunEvents(Server& server, const std::string& job_id, const std::vector<Walk>& walks,
                   Report* rep) {
  EventRun ev = RunEventClients(server.port(), job_id, walks, 0, kMinEvents);
  CheckEvents(server, job_id, walks, ev, rep);
  return ev;
}

/// The inputs are a pure function of the seed: building them twice gives
/// the same bytes, and the next seed gives other bytes.
void CheckSeededInputs(Kind kind, const RunOptions& o, const GeneratedInterface& iface,
                       Report* rep) {
  auto bytes = [&](uint64_t seed) {
    RunOptions so = o;
    so.seed = seed;
    std::string s;
    for (const auto& req : MakePlan(kind, so).jobs) s += WriteJson(req.ToJson());
    for (const Walk& w : MakeWalks(iface, seed, kInteractClients, 200)) {
      for (const auto& ev : w) s += WriteJson(ev.ToJson());
    }
    return s;
  };
  const std::string mine = bytes(o.seed);
  rep->Count(mine == bytes(o.seed) && mine != bytes(o.seed + 1));
}

bool RunTimed(const Plan& p, const RunOptions& o, Report* rep) {
  Setup setup;
  if (!DoSetup(p, p.setup_rounds, rep, &setup)) return false;
  Server& server = *setup.server;
  const std::string job_id = setup.jobs.back().job_id;
  auto iface = JobInterface(server, job_id);
  if (iface == nullptr) {
    Report::Note("no interface to serve");
    return false;
  }
  CheckSeededInputs(p.kind, o, *iface, rep);

  const bool interact = p.kind == Kind::kSdssInteract;
  std::vector<JobResult> results;
  EventRun ev;
  std::vector<Walk> walks;
  if (interact) {
    walks = MakeWalks(*iface, o.seed, kInteractClients, kMaxWalk);
    ev = RunEventClients(server.port(), job_id, walks, o.seconds, kMinEvents);
    // Event latency is not an end-to-end metric (see README.md); the
    // median goes to stderr with its sample count.
    Report::Note("events: " + std::to_string(ev.us.size()) + " samples, median " +
                 std::to_string(Median(ev.us)) + " us");
  } else {
    for (const auto& req : p.jobs) {
      results.push_back(RunJob(server.port(), req));
      if (!results.back().ok) Report::Note("job failed: " + results.back().error);
    }
  }
  // The checks below load their own copies of data; they are not the server's.
  const double peak_rss_mb = PeakRssMb();

  // Checks, outside every timed region.
  if (interact) CheckEvents(server, job_id, walks, ev, rep);
  for (const JobResult& r : results) rep->Count(JobOk(p.kind, r));
  if (p.kind == Kind::kSdssGen) {
    const int bad = CheckGenerateIdentity(p.jobs, results);
    for (size_t i = 0; i < results.size(); ++i) rep->Count(static_cast<int>(i) >= bad);
  }

  // sdss-interact's only generation jobs are its set-ups'.
  std::vector<const JobResult*> gen;
  for (const JobResult& r : interact ? setup.jobs : results) gen.push_back(&r);
  rep->Set("setup_s", setup.setup_s, "s");
  rep->Set("peak_rss_mb", peak_rss_mb, "MB");
  rep->Set("ok_share",
           1.0 - static_cast<double>(rep->failed) / static_cast<double>(rep->attempted),
           "ratio");
  ReportGen(gen, rep);
  return true;
}

// ---------------------------------------------------------------------------
// Traced run.

struct ProgramSpans {
  std::map<std::string, double> us;  ///< summed span duration by name
  double iterations = 0;
  int used = 0;
  int dropped = 0;
};

/// Folds one job's /v1/jobs/{id}/trace into `out`. A trace that filled the
/// program's ring may have lost its earliest spans, so it is counted but not
/// used.
void AddProgramTrace(int port, const JobResult& job, ProgramSpans* out) {
  auto trace = HttpJson(port, "GET", JobPath(job.job_id) + "/trace");
  const JsonValue* events = trace.ok() ? trace->Find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    ++out->dropped;
    return;
  }
  if (events->items().size() >= obs::TraceRecorder::kDefaultCapacity) {
    ++out->dropped;
    return;
  }
  for (const JsonValue& e : events->items()) {
    const JsonValue* name = e.Find("name");
    const JsonValue* dur = e.Find("dur");
    if (name != nullptr && dur != nullptr && dur->is_number()) {
      out->us[name->AsString()] += dur->AsDouble();
    }
  }
  out->iterations += static_cast<double>(job.result()->stats.iterations);
  ++out->used;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Generation jobs the traced run repeats with the program's spans on.
std::vector<api::GenerateRequest> TraceJobs(const Plan& p) {
  switch (p.kind) {
    case Kind::kSdssGen:
      return {p.jobs.begin(), p.jobs.begin() + std::min<size_t>(2, p.jobs.size())};
    case Kind::kFlightsWarm:
      return {p.jobs.begin(), p.jobs.begin() + std::min<size_t>(6, p.jobs.size())};
    case Kind::kSdssInteract:
      return p.setup_jobs;
  }
  return {};
}

bool RunTraced(const Plan& p, const RunOptions& o, Report* rep) {
  SpanLog log;
  Setup setup;
  if (!DoSetup(p, 1, rep, &setup)) return false;
  Server& server = *setup.server;
  const std::vector<api::GenerateRequest> trace_jobs = TraceJobs(p);

  // Untraced pass over the trace jobs: counters, queue/run split, baseline.
  const auto before = ScrapeMetrics(server.port());
  std::vector<JobResult> untraced;
  for (const auto& req : trace_jobs) {
    untraced.push_back(RunJob(server.port(), req));
    rep->Count(JobOk(p.kind, untraced.back()));
  }
  const auto after = ScrapeMetrics(server.port());
  const double jobs_n = static_cast<double>(untraced.size());
  std::vector<double> queue_ms, run_ms, gen_untraced;
  double iterations = 0;
  for (const JobResult& r : untraced) {
    queue_ms.push_back(static_cast<double>(r.status.queued_ms));
    run_ms.push_back(static_cast<double>(r.status.run_ms));
    gen_untraced.push_back(r.gen_ms);
    if (r.result() != nullptr) iterations += static_cast<double>(r.result()->stats.iterations);
  }

  const std::string job_id = setup.jobs.back().job_id;
  auto iface = JobInterface(server, job_id);
  if (iface == nullptr) return false;
  const Walk script = MakeWalks(*iface, o.seed, 1, kMinEvents)[0];

  // Traced pass: same jobs on a fresh server (same starting caches), with the
  // program's span switch on.
  ProgramSpans prog;
  std::vector<double> gen_traced;
  double event_overhead_pct = 0;
  {
    Setup fresh;
    if (!DoSetup(p, 1, rep, &fresh)) return false;
    obs::SetTracingEnabled(true);
    std::vector<JobResult> traced;
    for (const auto& req : trace_jobs) {
      traced.push_back(RunJob(fresh.server->port(), req));
      rep->Count(JobOk(p.kind, traced.back()));
      gen_traced.push_back(traced.back().gen_ms);
    }
    obs::SetTracingEnabled(false);
    for (const JobResult& r : traced) {
      if (r.ok) AddProgramTrace(fresh.server->port(), r, &prog);
    }
    if (p.kind == Kind::kSdssInteract) {
      // The serving workload's overhead is on its events.
      EventRun plain = RunEvents(server, job_id, {script}, rep);
      obs::SetTracingEnabled(true);
      EventRun traced_ev = RunEvents(server, job_id, {script}, rep);
      obs::SetTracingEnabled(false);
      event_overhead_pct = 100.0 * (Mean(traced_ev.us) - Mean(plain.us)) / Mean(plain.us);
    }
  }
  const double overhead_pct =
      p.kind == Kind::kSdssInteract
          ? event_overhead_pct
          : 100.0 * (Mean(gen_traced) - Mean(gen_untraced)) / Mean(gen_untraced);

  // Benchmark-side replays.
  const std::vector<api::GenerateRequest> replay_jobs =
      p.kind == Kind::kSdssInteract ? p.setup_jobs : p.jobs;
  ReplayGeneration(replay_jobs, 6.0, &log, rep);
  ReplayEvents(server, job_id, "sdss", script, &log, rep);

  // cost: the program's own cache counters over the untraced pass.
  const double k = static_cast<double>(trace_jobs.front().options.k_assignments);
  const double eval_hits = Delta(before, after, "ifgen_eval_cache_hits_total");
  const double eval_misses = Delta(before, after, "ifgen_eval_evaluations_total") / k;
  rep->Set("cost.eval_cache_hit_ratio", Ratio(eval_hits, eval_hits + eval_misses), "ratio");
  const double sub_hits = Delta(before, after, "ifgen_delta_subtree_hits_total");
  rep->Set("cost.delta_subtree_hit_ratio",
           Ratio(sub_hits, sub_hits + Delta(before, after, "ifgen_delta_subtree_recomputes_total")),
           "ratio");
  const double plan_hits = Delta(before, after, "ifgen_delta_plan_hits_total");
  rep->Set("cost.delta_plan_hit_ratio",
           Ratio(plan_hits, plan_hits + Delta(before, after, "ifgen_delta_plan_recomputes_total")),
           "ratio");

  // search: program spans per iteration, TT ratio, iterations per job.
  for (const char* phase : {"select", "expand", "simulate", "backprop"}) {
    rep->Set(std::string("search.") + phase + "_us",
             Ratio(prog.us["mcts." + std::string(phase)], prog.iterations), "us");
  }
  rep->Set("search.sample_cost_share",
           Ratio(prog.us["eval.sample_cost"], prog.us["service.job"]), "ratio");
  rep->Set("search.trace_jobs_dropped", prog.dropped, "count");
  const double tt_hits = Delta(before, after, "ifgen_tt_transposition_hits_total");
  rep->Set("search.tt_hit_ratio",
           Ratio(tt_hits, tt_hits + Delta(before, after, "ifgen_search_states_expanded_total")),
           "ratio");
  rep->Set("search.iterations_per_job", Ratio(iterations, jobs_n), "count");

  // learn: experience seeding and the store's own operations.
  rep->Set("learn.seeded_per_job", Ratio(Delta(before, after, "ifgen_learn_seeded_total"), jobs_n),
           "count");
  rep->Set("learn.peer_hits_per_job",
           Ratio(Delta(before, after, "ifgen_tt_peer_cost_hits_total"), jobs_n), "count");
  double snapshot_us = 0, save_us = 0, load_us = 0, entries = 0;
  if (const auto& store = server.store()) {
    entries = static_cast<double>(store->size());
    auto opts = trace_jobs.front().options.ToGeneratorOptions();
    const uint64_t key =
        GenerationService::TtStoreKey(JobSpec{trace_jobs.front().sqls, *opts});
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/experience-" + o.workload + ".ifex";
    constexpr int kReps = 20;
    int64_t t0 = NowNs();
    for (int i = 0; i < kReps; ++i) {
      Scope s(&log, "learn.snapshot");
      (void)store->Snapshot(key, 1024);
    }
    snapshot_us = static_cast<double>(NowNs() - t0) / 1e3 / kReps;
    t0 = NowNs();
    {
      Scope s(&log, "learn.save");
      if (!store->SaveTo(path).ok()) rep->Count(false);
    }
    save_us = static_cast<double>(NowNs() - t0) / 1e3;
    learn::ExperienceStore reloaded;
    t0 = NowNs();
    {
      Scope s(&log, "learn.load");
      auto n = reloaded.LoadFrom(path);
      rep->Count(n.ok() && *n == store->size());
    }
    load_us = static_cast<double>(NowNs() - t0) / 1e3;
    std::filesystem::remove(path);
  }
  rep->Set("learn.store_entries", entries, "count");
  rep->Set("learn.snapshot_us", snapshot_us, "us");
  rep->Set("learn.save_us", save_us, "us");
  rep->Set("learn.load_us", load_us, "us");

  rep->Set("runtime.job_queue_ms", Mean(queue_ms), "ms");
  rep->Set("runtime.job_run_ms", Mean(run_ms), "ms");
  rep->Set("trace_overhead_pct", overhead_pct, "%");

  std::filesystem::create_directories(".bench_out");
  WriteSpans(log.spans(),
             ".bench_out/" + o.workload + "-" + std::to_string(o.seed) + ".trace.json");
  return true;
}

}  // namespace

bool RunWorkload(const RunOptions& o, Report* rep) {
  Kind kind;
  if (o.workload == "sdss-gen") {
    kind = Kind::kSdssGen;
  } else if (o.workload == "flights-warm") {
    kind = Kind::kFlightsWarm;
  } else if (o.workload == "sdss-interact") {
    kind = Kind::kSdssInteract;
  } else {
    Report::Note("unknown workload '" + o.workload + "'");
    return false;
  }
  const Plan p = MakePlan(kind, o);
  return o.trace ? RunTraced(p, o, rep) : RunTimed(p, o, rep);
}

}  // namespace perfbench
