#include "search/progress.h"

#include <chrono>

#include "obs/metrics.h"

namespace ifgen {

namespace {

obs::Counter& ProgressEventsMetric() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "ifgen_progress_events_total",
      "Best-so-far improvements published by search progress sinks");
  return *c;
}

obs::Histogram& FirstResultMetric() {
  static obs::Histogram* h = obs::MetricsRegistry::Default().GetHistogram(
      "ifgen_progress_first_result_us",
      "Time from progress-sink creation to the first published best-so-far "
      "result (microseconds)",
      obs::HistogramOptions{64.0, 2.0, 20});
  return *h;
}

}  // namespace

void ProgressSink::Publish(const DiffTree& tree, double cost, size_t iteration,
                          int64_t ms) {
  bool first = false;
  int64_t first_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    first = latest_.version == 0;
    if (first) first_us = birth_.ElapsedMicros();
    latest_ = Event{latest_.version + 1, cost, iteration, ms,
                    std::make_shared<DiffTree>(tree)};
  }
  cv_.notify_all();
  ProgressEventsMetric().Inc();
  if (first) FirstResultMetric().Observe(static_cast<double>(first_us));
}

ProgressSink::Event ProgressSink::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

uint64_t ProgressSink::WaitVersionAbove(uint64_t last_seen,
                                        int64_t wait_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto woken = [&] { return latest_.version > last_seen || closed_; };
  if (wait_ms < 0) {
    cv_.wait(lock, woken);
  } else if (wait_ms > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(wait_ms), woken);
  }
  return latest_.version;
}

uint64_t ProgressSink::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_.version;
}

void ProgressSink::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  cv_.notify_all();
}

bool ProgressSink::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace ifgen
