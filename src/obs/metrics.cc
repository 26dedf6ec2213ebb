#include "obs/metrics.h"

#include <atomic>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace sgr::obs {

namespace {

struct MetricsState {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  MetricsSnapshot counters;
  MetricsSnapshot maxima;
};

MetricsState& State() {
  static MetricsState* state = new MetricsState();  // never destroyed
  return *state;
}

void RaiseTo(std::uint64_t& current, std::uint64_t value) {
  if (value > current) current = value;
}

thread_local MetricsSink* current_sink = nullptr;

}  // namespace

bool MetricsEnabled() {
  return State().enabled.load(std::memory_order_relaxed);
}

void EnableMetrics(bool on) {
  State().enabled.store(on, std::memory_order_release);
}

void MetricAdd(const std::string& name, std::uint64_t delta) {
  if (!MetricsEnabled() || delta == 0) return;
  if (current_sink != nullptr) current_sink->Add(name, delta);
  MetricsState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.counters[name] += delta;
}

void MetricMax(const std::string& name, std::uint64_t value) {
  if (!MetricsEnabled()) return;
  if (current_sink != nullptr) current_sink->Max(name, value);
  MetricsState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  RaiseTo(state.maxima[name], value);
}

MetricsSnapshot SnapshotCounters() {
  MetricsState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.counters;
}

MetricsSnapshot SnapshotMaxMetrics() {
  MetricsState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.maxima;
}

void ResetMetrics() {
  MetricsState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.counters.clear();
  state.maxima.clear();
}

void MetricsSink::Add(const std::string& name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void MetricsSink::Max(const std::string& name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  RaiseTo(maxima_[name], value);
}

MetricsSnapshot MetricsSink::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

MetricsSnapshot MetricsSink::Maxima() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return maxima_;
}

MetricsSink* CurrentMetricsSink() { return current_sink; }

ScopedMetricsSink::ScopedMetricsSink(MetricsSink* sink)
    : previous_(current_sink) {
  current_sink = sink;
}

ScopedMetricsSink::~ScopedMetricsSink() { current_sink = previous_; }

std::size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace sgr::obs
