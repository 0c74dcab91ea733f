#pragma once

/// \file
/// \brief The benchmark's own arithmetic: percentiles, span self time and the
/// metric-name grammar. Header-only so the self-test links nothing else.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank position (1-based) of the percentile `per_mille`/10 among
/// `n` samples. Integer arithmetic, so p99 of 1000 samples is exactly rank
/// 990 rather than whatever 0.99 * 1000 rounds to.
inline size_t NearestRank(size_t n, int per_mille) {
  if (n == 0) return 0;
  size_t rank = (static_cast<size_t>(per_mille) * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank percentile of `n` samples.
inline size_t SamplesBeyond(size_t n, int per_mille) {
  return n - NearestRank(n, per_mille);
}

/// The highest percentile (in per mille) of the ladder p99.9, p99, p95, p90,
/// p75, p50 that still has at least ten samples beyond it; 500 (the median)
/// when none has.
inline int TailPerMille(size_t n) {
  for (int pm : {999, 990, 950, 900, 750, 500}) {
    if (SamplesBeyond(n, pm) >= 10) return pm;
  }
  return 500;
}

/// Nearest-rank percentile; NaN for an empty sample.
inline double Percentile(std::vector<double> v, int per_mille) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), per_mille) - 1];
}

/// The median: the middle sample, or the mean of the two middle samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Spans.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed region: name, [start, end) in steady-clock ns, and the index of
/// the span that caused it (-1 for a root). `track` separates concurrent
/// lanes (threads, parallel trees) in the exported trace.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int track = 0;
  int64_t dur_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval that
/// the union of its children covers. Children may overlap each other (parallel
/// trees under one parent) or run past the parent's end; the union is clipped
/// to the parent's interval, so self time is never negative and never counts
/// an overlapped stretch twice.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

/// Share of a span's interval covered by its children (1 - self/duration).
inline double ChildCoverage(const std::vector<Span>& spans,
                            const std::vector<int64_t>& self, size_t i) {
  const int64_t d = spans[i].dur_ns();
  return d <= 0 ? 1.0 : 1.0 - static_cast<double>(self[i]) / static_cast<double>(d);
}

/// Single-threaded span recorder: spans stay in memory with parent links and
/// are written out once, at the end of the run.
class SpanLog {
 public:
  int Open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int id) {
    spans_[id].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span over a SpanLog.
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), id_(log->Open(name)) {}
  ~Scope() { log_->Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Names.

inline bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

/// Metric names: 1-64 characters of letters, digits, '_', '.', '-', starting
/// with a letter or a digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name[0];
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') || (c0 >= '0' && c0 <= '9'))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), NameChar);
}

/// Units: 1-16 characters of letters, digits, '_', '/', '%', '.', '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return NameChar(c) || c == '/' || c == '%'; });
}

}  // namespace perfbench
