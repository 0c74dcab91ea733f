#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cost/delta.h"
#include "difftree/builder.h"
#include "interface/assignment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rollout_states.h"
#include "sql/parser.h"
#include "workload/sdss.h"

// ---------------------------------------------------------------------------
// Allocation counter for the zero- and fixed-allocation tests (disabled
// tracing, the widget assigner, RecordAnyOrder). The replacement operators
// serve the whole test binary; everything except the counter bump forwards
// to malloc/free.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ifgen {
namespace obs {
namespace {

// Restores the process-wide switches after tests that flip them.
class ObsSwitchGuard {
 public:
  ObsSwitchGuard() : metrics_(MetricsEnabled()), tracing_(TracingEnabled()) {}
  ~ObsSwitchGuard() {
    SetMetricsEnabled(metrics_);
    SetTracingEnabled(tracing_);
  }

 private:
  bool metrics_;
  bool tracing_;
};

// ------------------------------------------------------------------ counters

TEST(ObsCounter, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(4);
  c.Add(5);
  EXPECT_EQ(c.Value(), 10u);
}

TEST(ObsCounter, DisabledDropsUpdates) {
  ObsSwitchGuard guard;
  Counter c;
  c.Inc(7);
  SetMetricsEnabled(false);
  c.Inc(100);
  EXPECT_EQ(c.Value(), 7u);
  SetMetricsEnabled(true);
  c.Inc();
  EXPECT_EQ(c.Value(), 8u);
}

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

// -------------------------------------------------------------------- gauges

TEST(ObsGauge, SetAddSub) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(1.0);
  g.Sub(0.5);
  EXPECT_EQ(g.Value(), 3.0);
}

TEST(ObsGauge, ConcurrentAddsSumExactly) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(g.Value(), static_cast<double>(kThreads * kPerThread));
}

// ---------------------------------------------------------------- histograms

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpperBounds) {
  HistogramOptions opts;
  opts.first_bound = 1.0;
  opts.growth = 2.0;
  opts.num_buckets = 4;  // bounds: 1, 2, 4, 8 (+Inf overflow)
  Histogram h(opts);

  h.Observe(0.5);  // <= 1           -> bucket 0
  h.Observe(1.0);  // == bound 1     -> bucket 0 (le semantics)
  h.Observe(1.1);  // (1, 2]         -> bucket 1
  h.Observe(2.0);  // == bound 2     -> bucket 1
  h.Observe(8.0);  // == last bound  -> bucket 3
  h.Observe(9.0);  // above all      -> +Inf bucket

  const Histogram::Snapshot snap = h.GetSnapshot();
  ASSERT_EQ(snap.bounds.size(), 4u);
  ASSERT_EQ(snap.counts.size(), 5u);
  EXPECT_EQ(snap.bounds[0], 1.0);
  EXPECT_EQ(snap.bounds[3], 8.0);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.counts[4], 1u);  // +Inf
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.1 + 2.0 + 8.0 + 9.0);
}

TEST(ObsHistogram, QuantileInterpolatesWithinBucket) {
  HistogramOptions opts;
  opts.first_bound = 1.0;
  opts.growth = 2.0;
  opts.num_buckets = 4;  // bounds: 1, 2, 4, 8
  Histogram h(opts);
  // 100 observations, all in the (1, 2] bucket: quantiles interpolate
  // linearly across that bucket's [1, 2] range.
  for (int i = 0; i < 100; ++i) h.Observe(1.5);
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 2.0);
  EXPECT_NEAR(snap.Quantile(0.95), 1.95, 1e-9);
}

TEST(ObsHistogram, QuantileEdgeCases) {
  HistogramOptions opts;
  opts.num_buckets = 2;  // bounds: 1, 2
  Histogram h(opts);
  EXPECT_EQ(h.GetSnapshot().Quantile(0.5), 0.0);  // empty
  // Everything in the +Inf bucket clamps to the largest finite bound.
  h.Observe(100.0);
  EXPECT_EQ(h.GetSnapshot().Quantile(0.5), 2.0);
  EXPECT_EQ(h.QuantileP99(), 2.0);
}

TEST(ObsHistogram, ConcurrentObservationsKeepTotalCount) {
  HistogramOptions opts;
  opts.num_buckets = 8;
  Histogram h(opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>(1 + (t + i) % 300));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

// ------------------------------------------------------------------ registry

TEST(ObsRegistry, PointReadsAndLabelCells) {
  MetricsRegistry reg;
  reg.GetCounter("r_total", "help", {{"k", "a"}})->Inc(3);
  reg.GetCounter("r_total", "help", {{"k", "b"}})->Inc(4);
  EXPECT_EQ(reg.CounterValue("r_total", {{"k", "a"}}), 3u);
  EXPECT_EQ(reg.CounterValue("r_total", {{"k", "b"}}), 4u);
  EXPECT_EQ(reg.CounterValue("r_total", {{"k", "zzz"}}), 0u);
  EXPECT_EQ(reg.CounterValue("missing_total"), 0u);
  EXPECT_EQ(reg.CounterTotal("r_total"), 7u);

  reg.GetGauge("r_gauge", "help")->Set(1.25);
  EXPECT_EQ(reg.GaugeValue("r_gauge"), 1.25);
  EXPECT_EQ(reg.GaugeValue("missing_gauge"), 0.0);

  // WithLabels returns a stable pointer for the same label set.
  CounterFamily* fam = reg.GetCounterFamily("r_total", "help");
  EXPECT_EQ(fam->WithLabels({{"k", "a"}}), fam->WithLabels({{"k", "a"}}));
  EXPECT_NE(fam->WithLabels({{"k", "a"}}), fam->WithLabels({{"k", "b"}}));
}

TEST(ObsRegistry, PrometheusTextGolden) {
  MetricsRegistry reg;
  reg.GetCounter("t_requests_total", "Total requests", {{"method", "GET"}})->Inc(3);
  reg.GetCounter("t_requests_total", "Total requests", {{"method", "POST"}})->Inc(1);
  reg.GetGauge("t_queue_depth", "Queue depth")->Set(2.5);
  HistogramOptions opts;
  opts.first_bound = 1.0;
  opts.growth = 2.0;
  opts.num_buckets = 2;  // bounds: 1, 2
  Histogram* h = reg.GetHistogram("t_latency", "Latency", opts);
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(10.0);
  reg.GetCounter("t_weird_total", "Weird", {{"path", "a\\b\"c\nd"}})->Inc();

  // Families sort by name; label values escape backslash, quote, newline.
  const std::string expected = R"(# HELP t_latency Latency
# TYPE t_latency histogram
t_latency_bucket{le="1"} 1
t_latency_bucket{le="2"} 2
t_latency_bucket{le="+Inf"} 3
t_latency_sum 12
t_latency_count 3
# HELP t_queue_depth Queue depth
# TYPE t_queue_depth gauge
t_queue_depth 2.5
# HELP t_requests_total Total requests
# TYPE t_requests_total counter
t_requests_total{method="GET"} 3
t_requests_total{method="POST"} 1
# HELP t_weird_total Weird
# TYPE t_weird_total counter
t_weird_total{path="a\\b\"c\nd"} 1
)";
  EXPECT_EQ(reg.PrometheusText(), expected);
}

TEST(ObsRegistry, EscapeAndFormatHelpers) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(2.5), "2.5");
}

TEST(ObsRegistry, GlobalDefaultIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

// ------------------------------------------------------------------- tracing

TEST(ObsTrace, RingWraparoundKeepsNewestOldestFirst) {
  static const char* kNames[] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  TraceRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.name = kNames[i];
    e.cat = "t";
    e.ts_us = i;
    e.dur_us = 1;
    rec.Record(e);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_us, static_cast<int64_t>(i + 2));
    EXPECT_STREQ(events[i].name, kNames[i + 2]);
  }
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsTrace, ChromeTraceJsonShape) {
  TraceRecorder rec(8);
  TraceEvent e;
  e.name = "phase \"x\"";  // exercises JSON escaping
  e.cat = "test";
  e.ts_us = 10;
  e.dur_us = 5;
  e.tid = 3;
  rec.Record(e);
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10,\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  TraceRecorder empty(2);
  EXPECT_EQ(empty.ToChromeTraceJson(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(ObsTrace, SpansFeedScopedSinkAndGlobal) {
  ObsSwitchGuard guard;
  SetTracingEnabled(true);
  TraceRecorder sink(16);
  const size_t global_before = TraceRecorder::Global().size();
  const uint64_t global_dropped_before = TraceRecorder::Global().dropped();
  {
    ScopedTraceSink scoped(&sink);
    TraceSpan span("obs_test.span", "test");
  }
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_STREQ(sink.Events()[0].name, "obs_test.span");
  // The global ring saw it too (size grows unless it already wrapped).
  const uint64_t global_total_after =
      TraceRecorder::Global().size() + TraceRecorder::Global().dropped();
  EXPECT_GT(global_total_after, global_before + global_dropped_before);
  // After the scope, spans no longer reach the sink.
  { TraceSpan span("obs_test.after", "test"); }
  EXPECT_EQ(sink.size(), 1u);
}

TEST(ObsTrace, DisabledSpansAllocateNothing) {
  ObsSwitchGuard guard;
  SetTracingEnabled(false);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("obs_test.disabled", "test");
  }
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace obs

namespace {

// A rollout state's evaluation builds a widget assigner; on a sealed state
// whose terms the delta-cost cache holds, that costs a fixed number of
// allocations (its three reserved vectors), however big the state, plus two
// per BETWEEN composite (its range slider's copy of lo's domain and its
// rendered label).
TEST(AllocationBudget, WidgetAssignerOnAWarmSealedState) {
  const std::vector<Ast> queries = *ParseQueries(SdssListing1());
  std::vector<DiffTree> states = RolloutStates(queries, 5, 60, 0.8);
  const CostConstants constants;
  DeltaCostCache delta;
  for (const DiffTree& s : states) {
    SealCheckingNormal(s);  // as the search seals its initial state; the rest are Apply's
    const WidgetAssigner warm(s, constants, &delta);
  }
  size_t decisions = 0;
  size_t ranges = 0;
  for (const DiffTree& s : states) {
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    size_t state_ranges = 0;
    {
      const WidgetAssigner assigner(s, constants, &delta);
      decisions += assigner.decisions().size();
      for (const DecisionPoint& d : assigner.decisions()) {
        state_ranges += d.type == DecisionType::kBetweenComposite ? 1 : 0;
      }
    }
    const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_LE(allocs, 3 + 2 * state_ranges);
    ranges += state_ranges;
  }
  EXPECT_GT(decisions, 500u);
  EXPECT_GT(ranges, 10u);
}

DiffTree NumberAny(size_t n, uint64_t seed) {
  std::vector<DiffTree> alts;
  for (size_t i = 0; i < n; ++i) {
    alts.emplace_back(Symbol::kNumExpr, std::to_string((i * 7919 + seed) % 1000));
  }
  return DiffTree::Any(std::move(alts));
}

// RecordAnyOrder ranks an ANY's alternatives (up to 256) in stack buffers:
// with room in its output it allocates nothing.
TEST(AllocationBudget, RecordAnyOrderAllocatesOnlyItsOutput) {
  const std::vector<Ast> queries = *ParseQueries(SdssListing1());
  std::vector<DiffTree> trees = RolloutStates(queries, 7, 40, 0.0);
  for (size_t n = 1; n <= 32; ++n) trees.push_back(DiffTree::Seq({NumberAny(n, n), NumberAny(n, 3)}));
  for (size_t n : {64, 255, 256}) trees.push_back(DiffTree::Seq({NumberAny(n, n), NumberAny(n, 3)}));
  size_t recorded = 0;
  for (const DiffTree& t : trees) {
    AnyOrder order;
    order.reserve(4096);
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    ASSERT_TRUE(RecordAnyOrder(t, &order));
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
    recorded += order.size();
  }
  EXPECT_GT(recorded, 1000u);
}

}  // namespace
}  // namespace ifgen
