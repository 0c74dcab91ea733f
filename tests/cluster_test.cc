// Cluster layer tests: the length-prefixed frame transport, the RPC
// envelope codec, the WorkerServer dispatch (in-process), and the
// ClusterRouter driven against real worker processes — with the headline
// multi-process differential battery pinning a 3-worker cluster
// bit-identical to the in-process ApiService, and a worker-kill test
// pinning the retryable-error + reroute contract.
//
// This binary doubles as the worker binary: main() checks
// IsWorkerInvocation before InitGoogleTest, and the fixtures re-exec
// /proc/self/exe to spawn workers (fork+exec — TSan-safe).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/api_service.h"
#include "api/dto.h"
#include "api/rpc.h"
#include "cluster/cluster_router.h"
#include "cluster/frame.h"
#include "cluster/process.h"
#include "cluster/worker_server.h"
#include "http/net.h"
#include "util/json.h"

namespace ifgen {
namespace {

using api::ApiOptions;
using api::ApiService;
using api::ErrorBody;
using api::GenerateRequest;
using api::RpcEnvelope;
using api::RpcReply;
using api::SessionOpenRequest;
using api::WidgetEventRequest;
using cluster::ClusterRouter;
using cluster::ReadFrame;
using cluster::WorkerServer;
using cluster::WriteFrame;

// ------------------------------------------------------------ frames

TEST(Frame, RoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  for (const std::string payload :
       {std::string(""), std::string("{\"a\":1}"), std::string(1 << 20, 'x')}) {
    // Writer on its own thread: a frame larger than the socket buffer
    // would otherwise deadlock against the not-yet-started read.
    std::thread writer(
        [&] { EXPECT_TRUE(WriteFrame(fds[0], payload).ok()); });
    auto back = ReadFrame(fds[1], /*timeout_ms=*/10000);
    writer.join();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, payload);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Frame, OversizeAndEofAreDistinctFailures) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A length prefix over the cap is rejected without allocating the body.
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fds[0], huge, 4, 0), 4);
  auto oversize = ReadFrame(fds[1], 2000, /*max_frame_bytes=*/1024);
  ASSERT_FALSE(oversize.ok());
  EXPECT_EQ(oversize.status().code(), StatusCode::kInvalidArgument);
  // Peer hangup mid-frame is the retryable transport failure.
  const unsigned char partial[4] = {0x00, 0x00, 0x00, 0x10};
  ASSERT_EQ(::send(fds[0], partial, 4, 0), 4);
  ::close(fds[0]);
  auto eof = ReadFrame(fds[1], 2000);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(ErrorBody::FromStatus(eof.status()).retryable);
  ::close(fds[1]);
}

// ------------------------------------------------------ envelope codec

TEST(RpcEnvelope, RoundTripAndValidation) {
  RpcEnvelope env;
  env.method = api::kMethodGetJob;
  env.request_id = 42;
  env.payload = JsonValue::Object();
  env.payload.Set("id", JsonValue::Str("j-7"));
  auto back = RpcEnvelope::FromJson(env.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->api_version, "v1");
  EXPECT_EQ(back->method, env.method);
  EXPECT_EQ(back->request_id, 42);
  EXPECT_EQ(back->payload, env.payload);

  // A non-object payload is rejected at the codec, not at dispatch.
  auto v = env.ToJson();
  v.Set("payload", JsonValue::Int(3));
  EXPECT_FALSE(RpcEnvelope::FromJson(v).ok());
}

TEST(RpcReply, SuccessAndFailureRoundTrip) {
  JsonValue payload = JsonValue::Object();
  payload.Set("x", JsonValue::Int(1));
  auto ok_back = RpcReply::FromJson(RpcReply::Success(7, payload).ToJson());
  ASSERT_TRUE(ok_back.ok());
  EXPECT_TRUE(ok_back->ok);
  EXPECT_EQ(ok_back->request_id, 7);
  EXPECT_EQ(ok_back->payload, payload);

  auto fail_back = RpcReply::FromJson(
      RpcReply::Failure(8, Status::Unavailable("worker down")).ToJson());
  ASSERT_TRUE(fail_back.ok());
  EXPECT_FALSE(fail_back->ok);
  EXPECT_EQ(fail_back->request_id, 8);
  EXPECT_TRUE(fail_back->error.retryable);
  EXPECT_EQ(fail_back->error.ToStatus().code(), StatusCode::kUnavailable);
}

// --------------------------------------------- worker server, in-process

ApiService::Options SmallServiceOptions() {
  ApiService::Options o;
  o.workload_rows = 300;
  o.service.num_threads = 1;
  return o;
}

ApiOptions FastGenOptions() {
  ApiOptions o;
  o.time_budget_ms = 0;  // iteration-capped: deterministic
  o.max_iterations = 12;
  o.seed = 5;
  o.screen_width = 90;
  o.screen_height = 32;
  return o;
}

/// Raw client for one request/reply against a WorkerServer.
Result<RpcReply> RawCall(int port, const JsonValue& frame_json) {
  IFGEN_ASSIGN_OR_RETURN(int fd, net::ConnectTcp("127.0.0.1", port, 2000));
  Status w = WriteFrame(fd, WriteJson(frame_json));
  if (!w.ok()) {
    ::close(fd);
    return w;
  }
  auto frame = ReadFrame(fd, 10000);
  ::close(fd);
  IFGEN_RETURN_NOT_OK(frame.status());
  IFGEN_ASSIGN_OR_RETURN(JsonValue parsed, ParseJson(*frame));
  return RpcReply::FromJson(parsed);
}

TEST(WorkerServer, DispatchVersionGateAndUnknownMethod) {
  WorkerServer server;
  WorkerServer::Options opts;
  opts.service = SmallServiceOptions();
  ASSERT_TRUE(server.Start(std::move(opts)).ok());

  // ping round-trips through the live socket.
  RpcEnvelope ping;
  ping.method = api::kMethodPing;
  ping.request_id = 1;
  auto reply = RawCall(server.port(), ping.ToJson());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok) << reply->error.message;
  auto pong = api::WorkerPingResponse::FromJson(reply->payload);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->jobs_submitted, 0);
  EXPECT_FALSE(pong->draining);

  // Version mismatch: InvalidArgument, not retryable.
  RpcEnvelope bad = ping;
  bad.request_id = 2;
  JsonValue bad_json = bad.ToJson();
  bad_json.Set("api_version", JsonValue::Str("v2"));
  auto mismatch = RawCall(server.port(), bad_json);
  ASSERT_TRUE(mismatch.ok());
  EXPECT_FALSE(mismatch->ok);
  EXPECT_EQ(mismatch->error.ToStatus().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(mismatch->error.retryable);

  // Unknown method: Unimplemented.
  RpcEnvelope unknown;
  unknown.method = "job.reticulate";
  unknown.request_id = 3;
  auto unimpl = RawCall(server.port(), unknown.ToJson());
  ASSERT_TRUE(unimpl.ok());
  EXPECT_FALSE(unimpl->ok);
  EXPECT_EQ(unimpl->error.ToStatus().code(), StatusCode::kUnimplemented);

  // Draining: submissions answer retryable Unavailable, reads still work.
  server.Drain();
  RpcEnvelope submit;
  submit.method = api::kMethodSubmitGenerate;
  submit.request_id = 4;
  GenerateRequest gen;
  gen.workload = "flights";
  gen.options = FastGenOptions();
  submit.payload = gen.ToJson();
  auto refused = RawCall(server.port(), submit.ToJson());
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->ok);
  EXPECT_EQ(refused->error.ToStatus().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(refused->error.retryable);
  auto ping2 = RawCall(server.port(), ping.ToJson());
  ASSERT_TRUE(ping2.ok());
  EXPECT_TRUE(ping2->ok);
  server.Stop();
}

/// Back-to-back RPCs over one pooled connection, as the router sends them,
/// must not wait on TCP: a reply is written as two sends (length prefix,
/// then payload), and without TCP_NODELAY on the worker's side each reply
/// stalls about 40 ms on the client's delayed ACK (50 pings: ~2 s).
TEST(WorkerServer, RepliesOnAPooledConnectionDoNotStall) {
  WorkerServer server;
  WorkerServer::Options opts;
  opts.service = SmallServiceOptions();
  ASSERT_TRUE(server.Start(std::move(opts)).ok());
  auto fd = net::ConnectTcp("127.0.0.1", server.port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  RpcEnvelope ping;
  ping.method = api::kMethodPing;
  constexpr int kPings = 50;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= kPings; ++i) {
    ping.request_id = i;
    ASSERT_TRUE(WriteFrame(*fd, WriteJson(ping.ToJson())).ok());
    auto frame = ReadFrame(*fd, 10000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ::close(*fd);
  server.Stop();
  EXPECT_LT(elapsed.count(), 1000) << kPings << " pings took "
                                   << elapsed.count() << " ms";
}

// ------------------------------------------------- multi-process fixture

/// Spawns N workers (this test binary re-exec'd) + a router over them.
class ClusterTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 3;

  void StartCluster(size_t max_inflight = 64) {
    auto self = cluster::SelfExePath();
    ASSERT_TRUE(self.ok()) << self.status().ToString();
    ClusterRouter::Options ropts;
    for (int i = 0; i < kWorkers; ++i) {
      auto w = cluster::SpawnWorkerProcess(*self, WorkerArgs());
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      spawned_.push_back(*w);
      ropts.workers.push_back({"127.0.0.1", w->port});
    }
    ropts.max_inflight_per_worker = max_inflight;
    ropts.health_interval_ms = 100;  // fast recovery detection in tests
    ropts.reconnect_backoff_ms = 50;
    ASSERT_TRUE(router_.Start(std::move(ropts)).ok());
  }

  static std::vector<std::string> WorkerArgs() {
    return {"--rows", "300", "--threads", "1", "--max-pending", "64"};
  }

  /// Replaces a (dead) worker with a fresh process bound to the SAME port —
  /// the rolling-restart scenario: the router's recorded routes still point
  /// at the address, but the dense id space behind it has reset.
  void RestartWorkerOnSamePort(size_t idx) {
    auto self = cluster::SelfExePath();
    ASSERT_TRUE(self.ok());
    std::vector<std::string> args = WorkerArgs();
    args.push_back("--port");
    args.push_back(std::to_string(spawned_[idx].port));
    auto w = cluster::SpawnWorkerProcess(*self, args);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_EQ(w->port, spawned_[idx].port);
    spawned_[idx] = *w;
  }

  /// Polls until worker `idx` reports healthy (the health loop has to
  /// notice the restarted process on its probe schedule).
  void WaitWorkerHealthy(size_t idx, int64_t timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      auto info = router_.Cluster();
      if (info.ok() && info->workers[idx].healthy) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    FAIL() << "worker " << idx << " did not recover in time";
  }

  void TearDown() override {
    router_.Stop();
    for (const cluster::SpawnedWorker& w : spawned_) {
      if (::kill(w.pid, 0) == 0 || errno != ESRCH) {
        cluster::TerminateWorker(w.pid, /*grace_ms=*/5000);
      }
    }
  }

  std::vector<cluster::SpawnedWorker> spawned_;
  ClusterRouter router_;
};

/// Masks the wall-clock fields two identical runs legitimately disagree on;
/// everything else must match bit-for-bit.
void NormalizeResult(api::GenerateResponse* g) {
  g->stats.elapsed_ms = 0;
  for (api::TracePoint& p : g->stats.trace) p.ms = 0;
}

void NormalizeStatus(api::JobStatusResponse* s) {
  s->queued_ms = 0;
  s->run_ms = 0;
  if (s->result.value.has_value()) NormalizeResult(&*s->result.value);
}

/// Collects (choice_id, option_count, kind) triples from a widgets tree.
void CollectChoices(const JsonValue& node,
                    std::vector<std::tuple<int64_t, int64_t, std::string>>* out) {
  const JsonValue* choice = node.Find("choice");
  const JsonValue* widget = node.Find("widget");
  if (choice != nullptr && widget != nullptr) {
    const JsonValue* options = node.Find("options");
    out->emplace_back(choice->AsInt(),
                      options != nullptr ? static_cast<int64_t>(options->size()) : 0,
                      widget->AsString());
  }
  const JsonValue* children = node.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const JsonValue& c : children->items()) CollectChoices(c, out);
  }
}

/// The headline acceptance test: the same workload battery through the
/// in-process frontend and through a 3-worker cluster must produce
/// bit-identical responses — ids, interfaces, costs, session tables.
TEST_F(ClusterTest, DifferentialBatteryMatchesInProcessBitIdentical) {
  StartCluster();
  auto local = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  api::ServiceFrontend* lhs = local->get();  // in-process
  api::ServiceFrontend* rhs = &router_;      // 3 worker processes

  struct Case {
    const char* workload;
    int64_t seed;
  };
  const Case battery[] = {
      {"flights", 5}, {"sdss", 11}, {"synthetic", 17}, {"flights", 23}};

  for (const Case& c : battery) {
    SCOPED_TRACE(std::string(c.workload) + "/seed=" + std::to_string(c.seed));
    GenerateRequest req;
    req.workload = c.workload;
    req.options = FastGenOptions();
    req.options.seed = c.seed;

    auto a = lhs->SubmitGenerate(req);
    auto b = rhs->SubmitGenerate(req);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Dense router-owned id spaces: cluster ids match single-process ids.
    EXPECT_EQ(a->job_id, b->job_id);

    auto sa = lhs->GetJob(a->job_id, /*wait_ms=*/30000);
    auto sb = rhs->GetJob(b->job_id, /*wait_ms=*/30000);
    ASSERT_TRUE(sa.ok()) << sa.status().ToString();
    ASSERT_TRUE(sb.ok()) << sb.status().ToString();
    ASSERT_EQ(sa->state, "done");
    ASSERT_EQ(sb->state, "done");
    NormalizeStatus(&*sa);
    NormalizeStatus(&*sb);
    EXPECT_TRUE(*sa == *sb) << "job status diverged:\n"
                            << WriteJson(sa->ToJson()) << "\nvs\n"
                            << WriteJson(sb->ToJson());

    // Session arm: open over the job, fire a deterministic event battery,
    // compare every step response and the final table exactly.
    SessionOpenRequest open;
    open.job_id = a->job_id;
    auto oa = lhs->OpenSession(open);
    auto ob = rhs->OpenSession(open);
    ASSERT_TRUE(oa.ok()) << oa.status().ToString();
    ASSERT_TRUE(ob.ok()) << ob.status().ToString();
    EXPECT_EQ(oa->session_id, ob->session_id);
    api::SessionOpenResponse norm_b = *ob;
    EXPECT_TRUE(*oa == norm_b) << "session open diverged";

    std::vector<std::tuple<int64_t, int64_t, std::string>> choices;
    CollectChoices(oa->widgets, &choices);
    int fired = 0;
    for (const auto& [choice_id, option_count, kind] : choices) {
      WidgetEventRequest e;
      if (kind == "Checkbox" || kind == "Toggle") {
        e.kind = "set_opt";
        e.choice_id = choice_id;
        e.present = true;
      } else if (option_count > 0) {
        e.kind = "set_any";
        e.choice_id = choice_id;
        e.option_index = (c.seed + fired) % option_count;
      } else {
        continue;
      }
      auto ra = lhs->ApplyEvent(oa->session_id, e);
      auto rb = rhs->ApplyEvent(ob->session_id, e);
      ASSERT_EQ(ra.ok(), rb.ok()) << "event " << fired << " diverged in status";
      if (ra.ok()) {
        EXPECT_TRUE(*ra == *rb)
            << "step " << fired << " diverged:\n"
            << WriteJson(ra->ToJson()) << "\nvs\n" << WriteJson(rb->ToJson());
      }
      if (++fired >= 6) break;
    }
    EXPECT_GT(fired, 0) << "battery fired no events";

    auto ta = lhs->SessionTable(oa->session_id);
    auto tb = rhs->SessionTable(ob->session_id);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    EXPECT_TRUE(*ta == *tb) << "final session tables diverged";

    EXPECT_TRUE(lhs->CloseSession(oa->session_id).ok());
    EXPECT_TRUE(rhs->CloseSession(ob->session_id).ok());
  }

  // The cluster identifies itself; the in-process frontend stays "single".
  auto cluster_info = rhs->Cluster();
  ASSERT_TRUE(cluster_info.ok());
  EXPECT_EQ(cluster_info->mode, "cluster");
  ASSERT_EQ(cluster_info->workers.size(), static_cast<size_t>(kWorkers));
  auto local_info = lhs->Cluster();
  ASSERT_TRUE(local_info.ok());
  EXPECT_EQ(local_info->mode, "single");
  EXPECT_TRUE(local_info->workers.empty());

  // Catalogs agree (workers load the same registered workloads).
  auto ca = lhs->Catalog();
  auto cb = rhs->Catalog();
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_TRUE(*ca == *cb);

  // Aggregated cluster stats cover the same work the local frontend did.
  auto st = rhs->Stats();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->jobs_submitted, 4);
  EXPECT_EQ(st->sessions_opened, 4);
  ASSERT_EQ(st->cluster_workers.size(), static_cast<size_t>(kWorkers));
  int64_t per_worker_submitted = 0;
  for (const api::WorkerStatsDto& w : st->cluster_workers) {
    EXPECT_TRUE(w.healthy);
    per_worker_submitted += w.jobs_submitted;
  }
  EXPECT_EQ(per_worker_submitted, 4);
}

TEST_F(ClusterTest, JobsSpreadAcrossWorkers) {
  StartCluster();
  // Distinct requests hash to distinct ring points; with 24 seeds over 3
  // workers the odds of all landing on one worker are (1/3)^23.
  std::vector<std::string> jobs;
  for (int64_t seed = 0; seed < 24; ++seed) {
    GenerateRequest req;
    req.workload = "synthetic";
    req.options = FastGenOptions();
    req.options.max_iterations = 2;
    req.options.seed = seed;
    auto acc = router_.SubmitGenerate(req);
    ASSERT_TRUE(acc.ok()) << acc.status().ToString();
    jobs.push_back(acc->job_id);
  }
  std::vector<bool> hit(kWorkers, false);
  for (const std::string& id : jobs) {
    auto idx = router_.WorkerIndexForJob(id);
    ASSERT_TRUE(idx.ok());
    hit[*idx] = true;
  }
  EXPECT_GT(std::count(hit.begin(), hit.end(), true), 1)
      << "all jobs landed on one worker — the ring is not spreading";
  // Identical requests co-locate (cache affinity): resubmitting seed 0
  // must route to the same worker.
  GenerateRequest req;
  req.workload = "synthetic";
  req.options = FastGenOptions();
  req.options.max_iterations = 2;
  req.options.seed = 0;
  auto again = router_.SubmitGenerate(req);
  ASSERT_TRUE(again.ok());
  auto idx_first = router_.WorkerIndexForJob(jobs[0]);
  auto idx_again = router_.WorkerIndexForJob(again->job_id);
  ASSERT_TRUE(idx_first.ok());
  ASSERT_TRUE(idx_again.ok());
  EXPECT_EQ(*idx_first, *idx_again);
}

/// Acceptance: killing a worker mid-job surfaces a retryable error for that
/// job, and subsequent submissions reroute to the surviving workers.
TEST_F(ClusterTest, WorkerKillMidJobIsRetryableAndReroutes) {
  StartCluster();
  // A long iteration-capped job keeps the owning worker busy while we
  // kill it (threads=1 serializes any queue behind it).
  GenerateRequest slow;
  slow.workload = "flights";
  slow.options = FastGenOptions();
  slow.options.max_iterations = 200000;
  auto acc = router_.SubmitGenerate(slow);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  auto owner = router_.WorkerIndexForJob(acc->job_id);
  ASSERT_TRUE(owner.ok());
  ASSERT_EQ(::kill(spawned_[*owner].pid, SIGKILL), 0);
  ::waitpid(spawned_[*owner].pid, nullptr, 0);

  // Polling the dead worker's job: retryable Unavailable (its state lived
  // in that process), surfaced as HTTP 503 + retryable on the wire.
  auto dead = router_.GetJob(acc->job_id, /*wait_ms=*/5000);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable)
      << dead.status().ToString();
  EXPECT_TRUE(ErrorBody::FromStatus(dead.status()).retryable);

  // New jobs reroute around the corpse and still finish.
  for (int64_t seed = 100; seed < 106; ++seed) {
    GenerateRequest req;
    req.workload = "synthetic";
    req.options = FastGenOptions();
    req.options.seed = seed;
    auto retry = router_.SubmitGenerate(req);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    auto idx = router_.WorkerIndexForJob(retry->job_id);
    ASSERT_TRUE(idx.ok());
    EXPECT_NE(*idx, *owner) << "routed a job to the killed worker";
    auto done = router_.GetJob(retry->job_id, /*wait_ms=*/30000);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(done->state, "done");
  }

  // The topology reports the dead worker unhealthy.
  auto info = router_.Cluster();
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->workers[*owner].healthy);
}

TEST_F(ClusterTest, BoundedAdmissionAnswersResourceExhausted) {
  // max_inflight_per_worker=0 makes every RPC trip the admission bound —
  // deterministic 429 without having to race real congestion.
  StartCluster(/*max_inflight=*/0);
  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto r = router_.SubmitGenerate(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_TRUE(ErrorBody::FromStatus(r.status()).retryable);
}

TEST_F(ClusterTest, DrainRefusesNewWorkKeepsReads) {
  StartCluster();
  GenerateRequest req;
  req.workload = "synthetic";
  req.options = FastGenOptions();
  auto acc = router_.SubmitGenerate(req);
  ASSERT_TRUE(acc.ok());
  auto done = router_.GetJob(acc->job_id, /*wait_ms=*/30000);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, "done");

  router_.DrainWorkers();
  EXPECT_TRUE(router_.WaitDrained(/*timeout_ms=*/10000));
  // Draining workers refuse new jobs (retryable — a rolling restart wants
  // the client to come back)...
  req.options.seed = 99;
  auto refused = router_.SubmitGenerate(req);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(ErrorBody::FromStatus(refused.status()).retryable)
      << refused.status().ToString();
  // ...but finished state stays readable for the drain window.
  auto still = router_.GetJob(acc->job_id);
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still->state, "done");
}

// ------------------------------------------------- same-schema job storm

/// Iteration-capped options with state-keyed cost sampling (the experience
/// flag; neither frontend has an experience store, so nothing is seeded).
ApiOptions StateKeyedGenOptions(int64_t max_iterations) {
  ApiOptions o = FastGenOptions();
  o.experience = true;
  o.max_iterations = max_iterations;
  return o;
}

/// A same-schema job storm (same workload + seed, different budgets —
/// distinct result-cache keys) through a 3-worker cluster must stay
/// bit-identical to the in-process frontend, job for job.
TEST_F(ClusterTest, SameSchemaStormBitIdenticalToInProcess) {
  StartCluster();
  auto local = ApiService::Create(SmallServiceOptions());
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  api::ServiceFrontend* lhs = local->get();
  api::ServiceFrontend* rhs = &router_;

  const int64_t budgets[] = {200, 24, 60, 36, 96, 48};
  for (const int64_t budget : budgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    GenerateRequest req;
    req.workload = "flights";
    req.options = StateKeyedGenOptions(budget);

    auto a = lhs->SubmitGenerate(req);
    auto b = rhs->SubmitGenerate(req);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->job_id, b->job_id);
    auto sa = lhs->GetJob(a->job_id, /*wait_ms=*/30000);
    auto sb = rhs->GetJob(b->job_id, /*wait_ms=*/30000);
    ASSERT_TRUE(sa.ok()) << sa.status().ToString();
    ASSERT_TRUE(sb.ok()) << sb.status().ToString();
    ASSERT_EQ(sa->state, "done");
    ASSERT_EQ(sb->state, "done");
    NormalizeStatus(&*sa);
    NormalizeStatus(&*sb);
    EXPECT_TRUE(*sa == *sb)
        << "cluster diverged from single-process:\n"
        << WriteJson(sa->ToJson()) << "\nvs\n" << WriteJson(sb->ToJson());
  }
}

/// A rolling restart: the owner dies, an identical resubmission reroutes to
/// a sibling, and the owner returns empty on the same port. Ids minted by
/// the dead incarnation answer NotFound, never a new job's aliased result,
/// and the next identical submit is placed on the restarted owner again,
/// which recomputes the bit-identical result.
TEST_F(ClusterTest, RerouteAfterOwnerRestartAndStaleIdsAreNotFound) {
  StartCluster();
  GenerateRequest req;
  req.workload = "flights";
  req.options = StateKeyedGenOptions(12);

  auto first = router_.SubmitGenerate(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto owner = router_.WorkerIndexForJob(first->job_id);
  ASSERT_TRUE(owner.ok());
  auto done = router_.GetJob(first->job_id, /*wait_ms=*/30000);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, "done");
  api::JobStatusResponse baseline = *done;
  NormalizeStatus(&baseline);
  const std::string stale_id = first->job_id;

  // Kill the owner; the identical resubmission reroutes to a sibling,
  // which computes the same result and caches it under the same key.
  ASSERT_EQ(::kill(spawned_[*owner].pid, SIGKILL), 0);
  ::waitpid(spawned_[*owner].pid, nullptr, 0);
  auto rerouted = router_.SubmitGenerate(req);
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  auto sibling = router_.WorkerIndexForJob(rerouted->job_id);
  ASSERT_TRUE(sibling.ok());
  ASSERT_NE(*sibling, *owner);
  auto sibling_done = router_.GetJob(rerouted->job_id, /*wait_ms=*/30000);
  ASSERT_TRUE(sibling_done.ok());
  ASSERT_EQ(sibling_done->state, "done");

  // The owner returns on the SAME port as a fresh process (empty caches,
  // reset dense id space); the health loop readopts it.
  RestartWorkerOnSamePort(*owner);
  WaitWorkerHealthy(*owner);

  // Mint jobs on the restarted worker until its fresh id space has issued
  // at least one local id — the aliasing hazard the epoch check exists for.
  bool aliased = false;
  for (int64_t seed = 900; seed < 960 && !aliased; ++seed) {
    GenerateRequest probe;
    probe.workload = "synthetic";
    probe.options = FastGenOptions();
    probe.options.max_iterations = 2;
    probe.options.seed = seed;
    auto acc = router_.SubmitGenerate(probe);
    ASSERT_TRUE(acc.ok()) << acc.status().ToString();
    auto idx = router_.WorkerIndexForJob(acc->job_id);
    ASSERT_TRUE(idx.ok());
    aliased = (*idx == *owner);
  }
  ASSERT_TRUE(aliased) << "no probe job landed on the restarted worker";

  // The dead incarnation's id must answer NotFound — the restarted worker
  // now owns a job with the same worker-local dense id, and serving it
  // would hand this caller another job's result.
  auto stale = router_.GetJob(stale_id);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound)
      << stale.status().ToString();

  // Identical submit again: placement hashes to the restarted owner, whose
  // cache is empty, so it recomputes the original result bit for bit.
  auto again = router_.SubmitGenerate(req);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto placed = router_.WorkerIndexForJob(again->job_id);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(*placed, *owner) << "submit was not placed on the restarted owner";
  auto recomputed = router_.GetJob(again->job_id, /*wait_ms=*/30000);
  ASSERT_TRUE(recomputed.ok());
  ASSERT_EQ(recomputed->state, "done");
  EXPECT_FALSE(recomputed->cache_hit) << "restarted owner kept a cache";
  api::JobStatusResponse norm = *recomputed;
  NormalizeStatus(&norm);
  norm.job_id = baseline.job_id;
  if (norm.result.value.has_value() && baseline.result.value.has_value()) {
    norm.result.value->job_id = baseline.result.value->job_id;
  }
  EXPECT_TRUE(norm == baseline)
      << "recomputed result diverged from the original:\n"
      << WriteJson(norm.ToJson()) << "\nvs\n" << WriteJson(baseline.ToJson());
}

/// The epoch guard covers error replies too. After the owner of a session
/// restarts and opens a session of its own, the old session's worker-local
/// id names the new one; an event that the new session rejects must still
/// answer NotFound for the old id, never the other process's error.
TEST_F(ClusterTest, StaleSessionNeverSeesARestartedOwnersErrors) {
  StartCluster();
  GenerateRequest req;
  req.workload = "flights";
  req.options = FastGenOptions();
  auto job = router_.SubmitGenerate(req);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto done = router_.GetJob(job->job_id, /*wait_ms=*/30000);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, "done");
  auto owner = router_.WorkerIndexForJob(job->job_id);
  ASSERT_TRUE(owner.ok());
  SessionOpenRequest open;
  open.job_id = job->job_id;
  auto stale = router_.OpenSession(open);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();

  ASSERT_EQ(::kill(spawned_[*owner].pid, SIGKILL), 0);
  ::waitpid(spawned_[*owner].pid, nullptr, 0);
  // While the owner is down its session fails retryably, and the router
  // marks the owner unhealthy until the restarted process answers a probe.
  auto down = router_.SessionTable(stale->session_id);
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable)
      << down.status().ToString();
  RestartWorkerOnSamePort(*owner);
  WaitWorkerHealthy(*owner);

  // A session on the restarted owner reissues the stale session's
  // worker-local id.
  bool reissued = false;
  for (int64_t seed = 900; seed < 960 && !reissued; ++seed) {
    GenerateRequest probe;
    probe.workload = "flights";
    probe.options = FastGenOptions();
    probe.options.max_iterations = 2;
    probe.options.seed = seed;
    auto acc = router_.SubmitGenerate(probe);
    ASSERT_TRUE(acc.ok()) << acc.status().ToString();
    auto idx = router_.WorkerIndexForJob(acc->job_id);
    ASSERT_TRUE(idx.ok());
    if (*idx != *owner) continue;
    auto probe_done = router_.GetJob(acc->job_id, /*wait_ms=*/30000);
    ASSERT_TRUE(probe_done.ok()) << probe_done.status().ToString();
    ASSERT_EQ(probe_done->state, "done");
    SessionOpenRequest fresh;
    fresh.job_id = acc->job_id;
    auto opened = router_.OpenSession(fresh);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    reissued = true;
  }
  ASSERT_TRUE(reissued) << "no probe job landed on the restarted worker";

  // The new session rejects this choice id; the stale caller must not see
  // that rejection.
  WidgetEventRequest bad;
  bad.kind = "set_any";
  bad.choice_id = 99999;
  bad.option_index = 0;
  auto step = router_.ApplyEvent(stale->session_id, bad);
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kNotFound)
      << step.status().ToString();
}

/// A worker dying in the middle of a long-poll (not just before submit)
/// must surface retryable Unavailable to the parked caller — the reply
/// stream just vanished; an Internal or a hang are both wrong.
TEST_F(ClusterTest, WorkerKillMidLongPollSurfacesRetryableUnavailable) {
  StartCluster();
  GenerateRequest slow;
  slow.workload = "flights";
  slow.options = FastGenOptions();
  slow.options.max_iterations = 200000;
  auto acc = router_.SubmitGenerate(slow);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  auto owner = router_.WorkerIndexForJob(acc->job_id);
  ASSERT_TRUE(owner.ok());

  // Park two callers on the running job: a progress long-poll and a
  // terminal-state wait. Both must come back retryable when the worker dies.
  Status progress_status = Status::OK();
  Status wait_status = Status::OK();
  std::thread progress_poller([&] {
    auto r = router_.GetJobProgress(acc->job_id, /*last_seen_version=*/0,
                                    /*wait_ms=*/30000);
    // A version-0 poll may return the initial frame immediately; keep
    // polling past whatever version it reports until the kill lands.
    int64_t last_seen = 0;
    while (r.ok()) {
      last_seen = r->version;
      r = router_.GetJobProgress(acc->job_id, last_seen, /*wait_ms=*/30000);
    }
    progress_status = r.status();
  });
  std::thread job_waiter([&] {
    auto r = router_.GetJob(acc->job_id, /*wait_ms=*/30000);
    while (r.ok() && r->state == "running") {
      r = router_.GetJob(acc->job_id, /*wait_ms=*/30000);
    }
    wait_status = r.ok() ? Status::Internal("job finished before the kill")
                         : r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(::kill(spawned_[*owner].pid, SIGKILL), 0);
  ::waitpid(spawned_[*owner].pid, nullptr, 0);
  progress_poller.join();
  job_waiter.join();

  EXPECT_EQ(progress_status.code(), StatusCode::kUnavailable)
      << progress_status.ToString();
  EXPECT_TRUE(ErrorBody::FromStatus(progress_status).retryable);
  EXPECT_EQ(wait_status.code(), StatusCode::kUnavailable)
      << wait_status.ToString();
  EXPECT_TRUE(ErrorBody::FromStatus(wait_status).retryable);
}

}  // namespace
}  // namespace ifgen

/// This binary doubles as the worker executable (the fixtures re-exec
/// /proc/self/exe): the worker branch must run before gtest touches argv.
int main(int argc, char** argv) {
  if (ifgen::cluster::IsWorkerInvocation(argc, argv)) {
    return ifgen::cluster::RunWorkerMain(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
