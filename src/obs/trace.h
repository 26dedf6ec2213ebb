#ifndef SGR_OBS_TRACE_H_
#define SGR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace sgr::obs {

/// One completed span, recorded by ~Span into the recording thread's
/// buffer. Timestamps are microseconds on the shared steady timebase
/// (obs::SteadyNowMicros), re-based to the StartTracing epoch at export
/// so traces start at ts 0.
struct TraceEvent {
  std::string name;        ///< span name ("crawl", "rewire", ...)
  const char* category;    ///< static taxonomy tag ("pipeline", "pool", ...)
  std::uint64_t start_us;  ///< begin, us on the SteadyNowMicros timebase
  std::uint64_t dur_us;    ///< duration in us
  std::uint32_t tid;       ///< stable per-thread buffer id (1-based)
};

/// Whether spans are currently being recorded. A single relaxed atomic
/// load — the null-sink fast path: with tracing off a Span costs this
/// load plus two stores, no allocation, no clock read.
bool TracingEnabled();

/// Clears every thread buffer, stamps the trace epoch, and enables
/// recording. Must not race active spans (call before the instrumented
/// work starts).
void StartTracing();

/// Disables recording. Events stay buffered until the next StartTracing,
/// so callers flush with CollectTraceEvents / TraceToJson afterwards.
/// Must not race active spans: every instrumented thread must have
/// finished (the scenario engine and thread pool join all workers before
/// their callers return, which is what makes the CLI's
/// run-then-stop-then-write sequence safe).
void StopTracing();

/// Merges every thread buffer into one list sorted by (start, -duration)
/// — parents before their children — without clearing the buffers.
/// Call only while tracing is stopped (or provably quiescent).
std::vector<TraceEvent> CollectTraceEvents();

/// The merged events as a Chrome trace_event JSON document:
///   {"displayTimeUnit": "ms",
///    "traceEvents": [{"name": ..., "cat": ..., "ph": "X", "ts": ...,
///                     "dur": ..., "pid": 1, "tid": ...}, ...]}
/// Complete events ("ph":"X") only; ts is re-based to the StartTracing
/// epoch. Loadable by chrome://tracing and Perfetto, and summarizable by
/// obs::SummarizeTrace (sgr trace summarize).
Json TraceToJson();

/// WriteJsonFile(TraceToJson(), path).
void WriteTrace(const std::string& path);

/// RAII span: records [construction, destruction) of the current thread
/// into its thread-local buffer. Appends are lock-free (a plain
/// std::vector push_back on thread-owned storage); the global registry
/// mutex is touched only on a thread's very first span. The name is
/// copied only when tracing is enabled at construction; pass a static
/// string or a cheap string_view.
///
/// Spans are pure observation: they draw no RNG, never branch the
/// instrumented algorithm, and cost one relaxed load when disabled —
/// which is why they can live inside the restoration hot paths without
/// perturbing the byte-identity determinism contract.
class Span {
 public:
  explicit Span(std::string_view name, const char* category = "pipeline")
      : active_(TracingEnabled()) {
    if (active_) {
      name_ = name;
      category_ = category;
      start_us_ = SteadyNowMicrosForTrace();
    }
  }

  ~Span() { End(); }

  /// Records the span now instead of at destruction, for consecutive
  /// phases that don't align with C++ scopes. Idempotent; the destructor
  /// then becomes a no-op.
  void End() {
    if (active_) {
      Record();
      active_ = false;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint64_t SteadyNowMicrosForTrace();
  void Record();

  std::string name_;
  const char* category_ = "";
  std::uint64_t start_us_ = 0;
  bool active_;
};

}  // namespace sgr::obs

#endif  // SGR_OBS_TRACE_H_
