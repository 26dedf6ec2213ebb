#ifndef SGR_OBS_METRICS_H_
#define SGR_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace sgr::obs {

/// Named-counter registry of the observability layer.
///
/// Two kinds of entries:
///   * counters — monotonically increasing (MetricAdd).
///   * high-water gauges — MetricMax keeps the maximum observed value
///     (pool queue depth).
///
/// Every update lands in the process-global registry and, when one is
/// open on the updating thread, in that thread's MetricsSink. The sink is
/// how the scenario engine attributes metrics to a cell even though the
/// cells' trials overlap on one pool: it opens a sink around each trial
/// and folds the trials' sinks into their cell in (cell, trial) order.
/// ThreadPool carries the submitting thread's sink to the worker that runs
/// a task, so a trial's task reports into the trial's sink.
///
/// The engine feeds the registry at coarse aggregation points — once per
/// crawl, once per restoration, once per chunked estimator pass, once
/// per pool task — never per inner-loop iteration, so the cost is a
/// short mutex-guarded map update a few dozen times per trial. When
/// metrics are disabled every call returns after one relaxed atomic
/// load. Like tracing, metrics are pure observation: no RNG draws, no
/// algorithm branches, and the report block they feed is volatile
/// (StripVolatile removes it), so reports are byte-identical post-strip
/// with metrics on or off.
using MetricsSnapshot = std::map<std::string, std::uint64_t>;

/// Whether metric updates are being recorded (one relaxed atomic load).
bool MetricsEnabled();

/// Turns the registry on or off. Existing values are kept; ResetMetrics
/// clears.
void EnableMetrics(bool on);

/// Adds `delta` to counter `name`, in the registry and in the calling
/// thread's open sink. No-op when disabled.
void MetricAdd(const std::string& name, std::uint64_t delta);

/// Raises high-water gauge `name` to at least `value`, in the registry
/// and in the calling thread's open sink. No-op when disabled.
void MetricMax(const std::string& name, std::uint64_t value);

/// Copies of the current counter / gauge tables (sorted by name).
MetricsSnapshot SnapshotCounters();
MetricsSnapshot SnapshotMaxMetrics();

/// Drops every counter and gauge (test isolation).
void ResetMetrics();

/// The metrics of one task: the counters and gauges recorded while the
/// sink was open on some thread (ScopedMetricsSink). Safe to update from
/// several threads at once — a task's inner pool workers share its sink.
class MetricsSink {
 public:
  void Add(const std::string& name, std::uint64_t delta);
  void Max(const std::string& name, std::uint64_t value);

  /// Copies of the sink's counter / gauge tables (sorted by name).
  MetricsSnapshot Counters() const;
  MetricsSnapshot Maxima() const;

 private:
  mutable std::mutex mutex_;
  MetricsSnapshot counters_;
  MetricsSnapshot maxima_;
};

/// The sink open on the calling thread, or nullptr.
MetricsSink* CurrentMetricsSink();

/// Opens `sink` on the calling thread for the scope's lifetime (nullptr
/// opens none), restoring the previously open sink on exit.
class ScopedMetricsSink {
 public:
  explicit ScopedMetricsSink(MetricsSink* sink);
  ~ScopedMetricsSink();

  ScopedMetricsSink(const ScopedMetricsSink&) = delete;
  ScopedMetricsSink& operator=(const ScopedMetricsSink&) = delete;

 private:
  MetricsSink* previous_;
};

/// Peak resident-set size of this process in bytes (Linux: getrusage
/// ru_maxhwm; 0 where unsupported). A gauge read at emission time.
std::size_t PeakRssBytes();

}  // namespace sgr::obs

#endif  // SGR_OBS_METRICS_H_
