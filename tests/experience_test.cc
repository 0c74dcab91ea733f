// Learn layer tests (docs/learning.md): the ExperienceStore's merge and
// persistence contracts (round-trip equality, best-cost-wins, corrupt-file
// cold starts), the prior fitter's weight fitting + JSON round-trip, the
// experience-off bit-identity guarantee, warm-start seed/record counters,
// save-while-searching under TSan — and the cluster arm: a worker persists
// its store on SIGTERM drain and a restarted worker on the same port
// warm-starts from it.
//
// Like cluster_test.cc, this binary doubles as the worker binary: main()
// checks IsWorkerInvocation before InitGoogleTest so the cluster arm can
// re-exec /proc/self/exe with --experience-dir.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/dto.h"
#include "api/rpc.h"
#include "cluster/frame.h"
#include "cluster/process.h"
#include "core/json_export.h"
#include "cost/evaluator.h"
#include "difftree/builder.h"
#include "http/net.h"
#include "learn/experience.h"
#include "learn/prior_fit.h"
#include "runtime/service.h"
#include "sql/parser.h"
#include "util/json.h"
#include "workload/loader.h"

namespace ifgen {
namespace {

using api::GenerateRequest;
using api::RpcEnvelope;
using api::RpcReply;
using learn::ExperienceRecord;
using learn::ExperienceStore;

// ---------------------------------------------------------------- helpers

/// Fresh per-test scratch directory (removed best-effort on destruction).
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/ifgen_exp_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    if (path.empty()) return;
    // Tests only create flat files under the directory.
    std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }
  std::string File(const std::string& name) const { return path + "/" + name; }
};

ExperienceRecord MakeRecord(uint64_t schema_fp, uint64_t canonical,
                            double cost, uint64_t visits = 1,
                            uint64_t best_action = 0, uint64_t epoch = 1) {
  ExperienceRecord r;
  r.schema_fp = schema_fp;
  r.canonical = canonical;
  r.best_action = best_action;
  r.best_cost = cost;
  r.visits = visits;
  r.epoch = epoch;
  return r;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ------------------------------------------------------- store semantics

TEST(ExperienceStore, RecordProbeAndBestCostWins) {
  ExperienceStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Probe(1, 10).has_value());
  EXPECT_EQ(store.misses(), 1u);

  store.Record(MakeRecord(1, 10, 5.0, /*visits=*/2, /*best_action=*/77));
  auto got = store.Probe(1, 10);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(got->best_cost, 5.0);
  EXPECT_EQ(got->best_action, 77u);
  EXPECT_EQ(got->visits, 2u);

  // A worse cost does not displace the best; visits still accumulate.
  store.Record(MakeRecord(1, 10, 9.0, /*visits=*/3, /*best_action=*/88));
  got = store.Probe(1, 10);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->best_cost, 5.0);
  EXPECT_EQ(got->best_action, 77u);
  EXPECT_EQ(got->visits, 5u);

  // A better cost replaces action + cost + epoch.
  store.Record(MakeRecord(1, 10, 3.5, /*visits=*/1, /*best_action=*/99,
                          /*epoch=*/4));
  got = store.Probe(1, 10);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->best_cost, 3.5);
  EXPECT_EQ(got->best_action, 99u);
  EXPECT_EQ(got->visits, 6u);
  EXPECT_EQ(got->epoch, 4u);

  // Non-finite costs are dropped at the door.
  store.Record(
      MakeRecord(1, 11, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(store.Probe(1, 11).has_value());
  EXPECT_EQ(store.size(), 1u);
}

TEST(ExperienceStore, SnapshotFiltersOrdersAndLimits) {
  ExperienceStore store;
  store.Record(MakeRecord(7, 100, 1.0, /*visits=*/2));
  store.Record(MakeRecord(7, 101, 1.0, /*visits=*/9));
  store.Record(MakeRecord(7, 102, 1.0, /*visits=*/9));
  store.Record(MakeRecord(8, 103, 1.0, /*visits=*/50));  // other fingerprint

  auto snap = store.Snapshot(7, 16);
  ASSERT_EQ(snap.size(), 3u);
  // Most-visited first; canonical ascending breaks the 101/102 tie.
  EXPECT_EQ(snap[0].canonical, 101u);
  EXPECT_EQ(snap[1].canonical, 102u);
  EXPECT_EQ(snap[2].canonical, 100u);

  auto limited = store.Snapshot(7, 1);
  ASSERT_EQ(limited.size(), 1u);
  EXPECT_EQ(limited[0].canonical, 101u);

  EXPECT_TRUE(store.Snapshot(9, 16).empty());
}

// ------------------------------------------------------------ persistence

TEST(ExperienceStore, SaveLoadRoundTripIsExact) {
  TempDir dir;
  ExperienceStore store;
  store.Record(MakeRecord(1, 10, 5.0, 2, 77, /*epoch=*/3));
  store.Record(MakeRecord(1, 11, 0.25, 1, 0, /*epoch=*/1));
  store.Record(MakeRecord(2, 12, -1.5, 9, 42, /*epoch=*/7));

  const std::string path = dir.File("store.exp");
  ASSERT_TRUE(store.SaveTo(path).ok());
  EXPECT_EQ(store.saves(), 1u);

  ExperienceStore back;
  auto loaded = back.LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 3u);
  EXPECT_EQ(back.loads(), 1u);
  EXPECT_EQ(back.All(), store.All());
  // The reloaded store's epoch has advanced past every epoch in the file,
  // so new records written by this process generation sort after old ones.
  EXPECT_GT(back.epoch(), 7u);
}

TEST(ExperienceStore, LoadMergesBestCostWins) {
  TempDir dir;
  ExperienceStore on_disk;
  on_disk.Record(MakeRecord(1, 10, 3.0, /*visits=*/4, /*best_action=*/5));
  on_disk.Record(MakeRecord(1, 11, 8.0, /*visits=*/1, /*best_action=*/6));
  const std::string path = dir.File("merge.exp");
  ASSERT_TRUE(on_disk.SaveTo(path).ok());

  ExperienceStore warm;
  warm.Record(MakeRecord(1, 10, 7.0, /*visits=*/2, /*best_action=*/9));
  warm.Record(MakeRecord(1, 11, 2.0, /*visits=*/2, /*best_action=*/9));
  auto loaded = warm.LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 2u);

  // File wins where the file was better...
  auto a = warm.Probe(1, 10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->best_cost, 3.0);
  EXPECT_EQ(a->best_action, 5u);
  EXPECT_EQ(a->visits, 6u);
  // ...and loses where the live store was.
  auto b = warm.Probe(1, 11);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->best_cost, 2.0);
  EXPECT_EQ(b->best_action, 9u);
  EXPECT_EQ(b->visits, 3u);
}

TEST(ExperienceStore, MissingFileIsSilentColdStart) {
  TempDir dir;
  ExperienceStore store;
  auto loaded = store.LoadFrom(dir.File("nope.exp"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(ExperienceStore, CorruptFilesLoadAsCleanColdStart) {
  TempDir dir;
  ExperienceStore source;
  for (uint64_t i = 0; i < 8; ++i) {
    source.Record(MakeRecord(3, 100 + i, 1.0 + static_cast<double>(i), i + 1));
  }
  const std::string good_path = dir.File("good.exp");
  ASSERT_TRUE(source.SaveTo(good_path).ok());
  const std::string good = ReadFileBytes(good_path);
  ASSERT_GT(good.size(), 24u);

  std::vector<std::pair<std::string, std::string>> corruptions;
  // Truncations: mid-magic, header-only, mid-payload, one byte short.
  for (size_t cut : {size_t{2}, size_t{16}, good.size() / 2, good.size() - 1}) {
    corruptions.emplace_back("truncate@" + std::to_string(cut),
                             good.substr(0, cut));
  }
  std::string flipped = good;
  flipped[good.size() - 5] = static_cast<char>(flipped[good.size() - 5] ^ 0x40);
  corruptions.emplace_back("bit-flip", flipped);
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  corruptions.emplace_back("wrong-magic", bad_magic);
  std::string bad_version = good;
  bad_version[4] = static_cast<char>(0xEE);
  corruptions.emplace_back("wrong-version", bad_version);

  for (const auto& [label, bytes] : corruptions) {
    const std::string path = dir.File("corrupt.exp");
    WriteFileBytes(path, bytes);
    ExperienceStore fresh;
    auto loaded = fresh.LoadFrom(path);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
    EXPECT_EQ(*loaded, 0u) << label;
    EXPECT_EQ(fresh.size(), 0u) << label;

    // Validation happens before any merge: a warm store keeps exactly what
    // it had — never partial state from the bad file.
    ExperienceStore warm;
    warm.Record(MakeRecord(9, 1, 4.0));
    const auto before = warm.All();
    auto warm_loaded = warm.LoadFrom(path);
    ASSERT_TRUE(warm_loaded.ok()) << label;
    EXPECT_EQ(*warm_loaded, 0u) << label;
    EXPECT_EQ(warm.All(), before) << label;
  }

  // The intact file still loads after all that.
  ExperienceStore fresh;
  auto loaded = fresh.LoadFrom(good_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 8u);
}

TEST(ExperienceStore, ConcurrentRecordProbeSnapshotSave) {
  TempDir dir;
  ExperienceStore store;
  std::atomic<bool> stop{false};
  const std::string path = dir.File("live.exp");

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, t] {
      for (uint64_t i = 0; i < 300; ++i) {
        // Overlapping keys across threads exercise the merge path.
        store.Record(MakeRecord(1, i % 64, static_cast<double>((t + i) % 7),
                                /*visits=*/1, /*best_action=*/t + 1));
      }
    });
  }
  std::thread reader([&store, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)store.Probe(1, 3);
      (void)store.Snapshot(1, 8);
    }
  });
  std::thread saver([&store, &stop, &path] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(store.SaveTo(path).ok());
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  saver.join();

  EXPECT_EQ(store.size(), 64u);
  ASSERT_TRUE(store.SaveTo(path).ok());
  ExperienceStore back;
  auto loaded = back.LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 64u);
  EXPECT_EQ(back.All(), store.All());
}

// -------------------------------------------------------------- prior fit

TEST(PriorFit, FitsClipsAndFiltersByUses) {
  std::vector<learn::RuleOutcome> outcomes;
  outcomes.push_back({"steady", 100, 50.0});   // mean 0.5
  outcomes.push_back({"strong", 100, 90.0});   // mean 0.9
  outcomes.push_back({"weak", 100, 1.0});      // mean 0.01 -> clipped low
  outcomes.push_back({"rare", 3, 3.0});        // under min_uses: dropped

  auto weights = learn::FitPriorWeights(outcomes, /*min_uses=*/8);
  ASSERT_EQ(weights.size(), 3u);
  double strong = 0, steady = 0, weak = 0;
  for (const auto& [name, w] : weights) {
    EXPECT_GE(w, 0.2);
    EXPECT_LE(w, 3.0);
    if (name == "strong") strong = w;
    if (name == "steady") steady = w;
    if (name == "weak") weak = w;
  }
  EXPECT_GT(strong, steady);
  EXPECT_GT(steady, weak);
  EXPECT_EQ(weak, 0.2);  // clipped at the floor

  EXPECT_TRUE(learn::FitPriorWeights({}, 8).empty());
}

TEST(PriorFit, WeightsRoundTripAndRejectBadFiles) {
  TempDir dir;
  const std::vector<std::pair<std::string, double>> weights = {
      {"filter", 1.5}, {"project", 0.75}};
  const std::string path = dir.File("priors.json");
  ASSERT_TRUE(learn::SavePriorWeights(path, weights).ok());
  auto back = learn::LoadPriorWeights(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, weights);

  auto missing = learn::LoadPriorWeights(dir.File("absent.json"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  WriteFileBytes(path, "{\"version\":1,\"weights\":[not json");
  auto bad = learn::LoadPriorWeights(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------- service integration + off

JobSpec Job(const std::vector<std::string>& log, bool experience) {
  JobSpec spec;
  spec.sqls = log;
  spec.options.experience = experience;
  spec.options.search.time_budget_ms = 0;  // iteration-capped: deterministic
  spec.options.search.max_iterations = 24;
  spec.options.search.seed = 9;
  return spec;
}

/// Submits `spec` and returns its result once the job is terminal.
Result<GeneratedInterface> RunSpec(GenerationService& service, JobSpec spec) {
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobId id,
                         service.SubmitJob(std::move(spec)));
  IFGEN_ASSIGN_OR_RETURN(GenerationService::JobInfo info, service.WaitJob(id));
  if (info.state != JobState::kDone) return info.error;
  return *info.result;
}

Result<GeneratedInterface> RunJob(GenerationService& service,
                                  const std::vector<std::string>& log,
                                  bool experience) {
  return RunSpec(service, Job(log, experience));
}

/// experience=false jobs must be bit-identical whether or not the service
/// carries a store — the wiring consumes zero RNG draws when off.
TEST(ExperienceService, OffArmBitIdenticalWithAndWithoutStore) {
  auto bundle = LoadWorkload("flights", 200);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  GenerationService::Options plain_opts;
  plain_opts.num_threads = 1;
  plain_opts.cache_capacity = 0;
  GenerationService plain(plain_opts);

  GenerationService::Options stored_opts;
  stored_opts.num_threads = 1;
  stored_opts.cache_capacity = 0;
  stored_opts.experience = std::make_shared<ExperienceStore>();
  // A non-empty store makes the check strict: off means off.
  stored_opts.experience->Record(MakeRecord(1, 2, 3.0));
  GenerationService stored(stored_opts);

  auto lhs = RunJob(plain, bundle->log, /*experience=*/false);
  auto rhs = RunJob(stored, bundle->log, /*experience=*/false);
  ASSERT_TRUE(lhs.ok()) << lhs.status().ToString();
  ASSERT_TRUE(rhs.ok()) << rhs.status().ToString();

  EXPECT_EQ(lhs->cost.total(), rhs->cost.total());
  EXPECT_EQ(lhs->stats.iterations, rhs->stats.iterations);
  EXPECT_EQ(lhs->stats.states_expanded, rhs->stats.states_expanded);
  EXPECT_EQ(lhs->stats.rollouts, rhs->stats.rollouts);
  EXPECT_EQ(WriteJson(DiffTreeToJsonValue(lhs->difftree)),
            WriteJson(DiffTreeToJsonValue(rhs->difftree)));
  EXPECT_EQ(WriteJson(CostToJsonValue(lhs->cost)),
            WriteJson(CostToJsonValue(rhs->cost)));

  const auto counters = stored.counters_snapshot();
  EXPECT_EQ(counters.learn_seeded, 0u);
  EXPECT_EQ(counters.learn_recorded, 0u);
}

TEST(ExperienceService, WarmStartSeedsFromRecordedExperience) {
  auto bundle = LoadWorkload("flights", 200);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto store = std::make_shared<ExperienceStore>();

  {
    GenerationService::Options opts;
    opts.num_threads = 1;
    opts.cache_capacity = 0;
    opts.experience = store;
    GenerationService cold(opts);
    auto result = RunJob(cold, bundle->log, /*experience=*/true);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto counters = cold.counters_snapshot();
    EXPECT_GT(counters.learn_recorded, 0u);
    EXPECT_EQ(counters.learn_seeded, 0u);  // nothing to seed from, first run
    EXPECT_GT(counters.learn_store_entries, 0u);
  }

  // A fresh service over the same store (same process restart shape as the
  // servers' load path) seeds the next identical job.
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 0;
  opts.experience = store;
  GenerationService warm(opts);
  auto result = RunJob(warm, bundle->log, /*experience=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto counters = warm.counters_snapshot();
  EXPECT_GT(counters.learn_seeded, 0u);
  EXPECT_GT(result->stats.root_seeded, 0u);
}

/// The root record carries the root's own sampled cost, like every other
/// record — not the cost of the interface the job returned, which a later
/// warm start would otherwise seed as the initial state's cost.
TEST(ExperienceService, RootRecordCarriesTheRootsOwnSampledCost) {
  auto bundle = LoadWorkload("flights", 200);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto store = std::make_shared<ExperienceStore>();
  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 0;
  opts.experience = store;
  GenerationService service(opts);
  const JobSpec spec = Job(bundle->log, /*experience=*/true);
  auto result = RunSpec(service, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<Ast> queries = *ParseQueries(bundle->log);
  const DiffTree initial = *BuildInitialTree(queries);
  StateEvaluator cold(spec.options.MakeEvalOptions(), queries);
  Rng unused(0);  // state-keyed sampling never draws from it
  const double root_cost = cold.SampleCost(initial, &unused);

  auto rec = store->Probe(GenerationService::TtStoreKey(spec), initial.CanonicalHash());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->best_cost, root_cost);
  EXPECT_NE(rec->best_action, 0u);  // the preferred root action survives
}

TEST(ExperienceService, SaveWhileSearchingIsSafe) {
  TempDir dir;
  auto bundle = LoadWorkload("flights", 200);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  auto store = std::make_shared<ExperienceStore>();

  GenerationService::Options opts;
  opts.num_threads = 1;
  opts.cache_capacity = 0;
  opts.experience = store;
  GenerationService service(opts);

  JobSpec spec;
  spec.sqls = bundle->log;
  spec.options.experience = true;
  spec.options.search.time_budget_ms = 0;
  spec.options.search.max_iterations = 120;
  spec.options.search.seed = 11;
  auto id = service.SubmitJob(spec);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  const std::string path = dir.File("racing.exp");
  Result<GenerationService::JobInfo> info = service.WaitJob(*id, 0);
  while (info.ok() && !info->terminal()) {
    ASSERT_TRUE(store->SaveTo(path).ok());
    info = service.WaitJob(*id, 0);
  }
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->state, JobState::kDone) << info->error.ToString();
  ASSERT_TRUE(store->SaveTo(path).ok());

  ExperienceStore back;
  auto loaded = back.LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, store->size());
}

// ------------------------------------------------------------ cluster arm

/// Raw client for one request/reply against a WorkerServer.
Result<RpcReply> RawCall(int port, const JsonValue& frame_json) {
  IFGEN_ASSIGN_OR_RETURN(int fd, net::ConnectTcp("127.0.0.1", port, 2000));
  Status w = cluster::WriteFrame(fd, WriteJson(frame_json));
  if (!w.ok()) {
    ::close(fd);
    return w;
  }
  auto frame = cluster::ReadFrame(fd, 10000);
  ::close(fd);
  IFGEN_RETURN_NOT_OK(frame.status());
  IFGEN_ASSIGN_OR_RETURN(JsonValue parsed, ParseJson(*frame));
  return RpcReply::FromJson(parsed);
}

/// Spawns one worker (this binary re-exec'd) with --experience-dir wired.
class ExperienceClusterTest : public ::testing::Test {
 protected:
  std::vector<std::string> WorkerArgs() const {
    return {"--rows",           "300",
            "--threads",        "1",
            "--max-pending",    "64",
            "--experience-dir", dir_.path,
            "--worker-index",   "0"};
  }

  void SpawnWorker(int port = 0) {
    auto self = cluster::SelfExePath();
    ASSERT_TRUE(self.ok()) << self.status().ToString();
    std::vector<std::string> args = WorkerArgs();
    if (port != 0) {
      args.push_back("--port");
      args.push_back(std::to_string(port));
    }
    auto w = cluster::SpawnWorkerProcess(*self, args);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    worker_ = *w;
  }

  void TearDown() override {
    if (worker_.pid > 0 && (::kill(worker_.pid, 0) == 0 || errno != ESRCH)) {
      cluster::TerminateWorker(worker_.pid, /*grace_ms=*/5000);
    }
  }

  /// Submits an experience-on generate and waits for the terminal state.
  api::JobStatusResponse SubmitAndWait(int64_t request_id) {
    GenerateRequest gen;
    gen.workload = "flights";
    gen.options.time_budget_ms = 0;  // iteration-capped: deterministic
    gen.options.max_iterations = 24;
    gen.options.seed = 9;
    gen.options.experience = true;
    RpcEnvelope submit;
    submit.method = api::kMethodSubmitGenerate;
    submit.request_id = request_id;
    submit.payload = gen.ToJson();
    auto accepted_reply = RawCall(worker_.port, submit.ToJson());
    EXPECT_TRUE(accepted_reply.ok()) << accepted_reply.status().ToString();
    EXPECT_TRUE(accepted_reply->ok) << accepted_reply->error.message;
    auto accepted = api::GenerateAccepted::FromJson(accepted_reply->payload);
    EXPECT_TRUE(accepted.ok());

    api::JobStatusResponse status;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      RpcEnvelope get;
      get.method = api::kMethodGetJob;
      get.request_id = request_id + 1000;
      api::IdRequest id;
      id.id = accepted->job_id;
      id.wait_ms = 500;
      get.payload = id.ToJson();
      auto reply = RawCall(worker_.port, get.ToJson());
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      auto parsed = api::JobStatusResponse::FromJson(reply->payload);
      EXPECT_TRUE(parsed.ok());
      status = *parsed;
      if (status.state != "queued" && status.state != "running") break;
    }
    EXPECT_EQ(status.state, "done");
    return status;
  }

  api::StatsResponse WorkerStats() {
    RpcEnvelope env;
    env.method = api::kMethodStats;
    env.request_id = 99;
    auto reply = RawCall(worker_.port, env.ToJson());
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    auto stats = api::StatsResponse::FromJson(reply->payload);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : api::StatsResponse{};
  }

  TempDir dir_;
  cluster::SpawnedWorker worker_{};
};

/// The cluster acceptance arm: run a job, SIGTERM the worker (the drain
/// path persists worker-0.exp), restart on the same port with the same
/// directory, and the restarted worker warm-starts from the file.
TEST_F(ExperienceClusterTest, WorkerRestartWarmStartsFromPersistedStore) {
  SpawnWorker();
  const int port = worker_.port;

  api::JobStatusResponse first = SubmitAndWait(1);
  ASSERT_EQ(first.state, "done");
  api::StatsResponse before = WorkerStats();
  EXPECT_GT(before.learn_recorded, 0);
  EXPECT_EQ(before.learn_seeded, 0);

  // SIGTERM -> drain -> final SaveTo, across the real exec boundary.
  ASSERT_TRUE(cluster::TerminateWorker(worker_.pid, /*grace_ms=*/10000).ok());
  const std::string store_path = dir_.File("worker-0.exp");
  ExperienceStore persisted;
  auto loaded = persisted.LoadFrom(store_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(*loaded, 0u);

  SpawnWorker(port);
  ASSERT_EQ(worker_.port, port);
  api::JobStatusResponse second = SubmitAndWait(2);
  ASSERT_EQ(second.state, "done");
  api::StatsResponse after = WorkerStats();
  // The restarted process loaded the file and seeded the identical job.
  EXPECT_GT(after.learn_store_entries, 0);
  EXPECT_GT(after.learn_seeded, 0);
}

}  // namespace
}  // namespace ifgen

int main(int argc, char** argv) {
  if (ifgen::cluster::IsWorkerInvocation(argc, argv)) {
    return ifgen::cluster::RunWorkerMain(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
