// Self-test of the benchmark's arithmetic (stats.h): the percentile rule,
// span self time under overlapping children, and the metric-name grammar.
// Exit code 0 = all checks pass.
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  using perfbench::Percentile;
  using perfbench::SamplesBeyond;
  using perfbench::TailPerMille;
  // p99 of 1000 samples is rank 990 and leaves exactly ten beyond it.
  Check(SamplesBeyond(1000, 990) == 10, "1000 samples leave 10 beyond p99");
  Check(TailPerMille(1000) == 990, "1000 samples support p99");
  Check(TailPerMille(999) == 950, "999 samples fall back to p95");
  Check(TailPerMille(10000) == 999, "10000 samples support p99.9");
  Check(TailPerMille(200) == 950, "200 samples support p95");
  Check(TailPerMille(100) == 900, "100 samples support p90");
  Check(TailPerMille(15) == 500, "15 samples fall back to the median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  Check(Percentile(v, 990) == 990, "p99 of 1..1000 is 990");
  Check(Percentile(v, 500) == 500, "p50 of 1..1000 is 500");
  Check(Percentile({7}, 990) == 7, "single sample");
  Check(perfbench::Median({4, 1, 3, 2}) == 2.5, "even median averages the middle two");
  Check(perfbench::Median({5, 1, 3}) == 3, "odd median");
}

void TestSelfTime() {
  using perfbench::Span;
  // Root [0,100] with two overlapping children from parallel trees
  // ([10,40] and [30,60]), one running past the root's end ([90,120]) and a
  // grandchild that must not count against the root.
  std::vector<Span> s(5);
  s[0] = {"root", 0, 100, -1, 0};
  s[1] = {"tree_a", 10, 40, 0, 1};
  s[2] = {"tree_b", 30, 60, 0, 2};
  s[3] = {"late", 90, 120, 0, 1};
  s[4] = {"leaf", 12, 20, 1, 1};
  const std::vector<int64_t> self = perfbench::SelfTimesNs(s);
  Check(self[0] == 40, "root self = 100 - |[10,60] u [90,100]|");
  Check(self[1] == 22, "tree_a self = 30 - 8");
  Check(self[2] == 30, "tree_b has no children");
  Check(self[3] == 30, "late has no children");
  Check(self[4] == 8, "leaf");
  Check(perfbench::ChildCoverage(s, self, 0) == 0.6, "root coverage 60%");
  // Identical children do not double count.
  std::vector<Span> dup = {{"p", 0, 10, -1, 0}, {"c", 0, 10, 0, 1}, {"c", 0, 10, 0, 2}};
  Check(perfbench::SelfTimesNs(dup)[0] == 0, "duplicate children");
}

void TestNames() {
  using perfbench::ValidMetricName;
  using perfbench::ValidUnit;
  Check(ValidMetricName("gen_ms_p50"), "plain name");
  Check(ValidMetricName("runtime.step_us.shape_change"), "dotted name");
  Check(ValidMetricName("0ok"), "leading digit");
  Check(!ValidMetricName(""), "empty name");
  Check(!ValidMetricName("_x"), "leading underscore");
  Check(!ValidMetricName(".x"), "leading dot");
  Check(!ValidMetricName("a b"), "space");
  Check(!ValidMetricName("a/b"), "slash");
  Check(ValidMetricName(std::string(64, 'a')), "64 characters");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");
  Check(ValidUnit("ms") && ValidUnit("1/s") && ValidUnit("%") && ValidUnit("count"), "units");
  Check(!ValidUnit("") && !ValidUnit("m s") && !ValidUnit(std::string(17, 'u')), "bad units");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestNames();
  if (failures == 0) std::printf("perfbench self-test: all checks pass\n");
  return failures == 0 ? 0 : 1;
}
