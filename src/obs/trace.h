// Scoped-span tracing: a hierarchical span tree per pipeline run.
//
//   DISTINCT_TRACE_SPAN("train");   // RAII: closes when the scope exits
//
// Each span records its name, wall-clock start offset and duration, its
// parent (the innermost span open on the same thread), and the thread it
// ran on. Spans opened on the calling thread nest via a thread-local stack;
// parallel workers record metrics instead of spans (see DESIGN.md §8 span
// naming conventions), which keeps the tree identical at every thread
// count for a fixed workload.
//
// When observability is off, DISTINCT_TRACE_SPAN costs one relaxed load.
// Open/close of an active span takes the tracer mutex — spans mark stage
// boundaries (dozens to a few thousand per run), never per-pair work.

#ifndef DISTINCT_OBS_TRACE_H_
#define DISTINCT_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"  // obs::Enabled

namespace distinct {
namespace obs {

/// One finished (or still open, duration < 0) span.
struct SpanRecord {
  std::string name;
  int64_t start_nanos = 0;     // offset from the tracer's epoch (Reset)
  int64_t duration_nanos = -1;  // -1 while open
  int parent = -1;              // index into the span list; -1 = root
  int thread = 0;               // tracer-assigned thread index (0 = first)
};

/// Collects spans process-wide. Reset() starts a new run (clears spans and
/// restarts the epoch clock).
class Tracer {
 public:
  static Tracer& Global();

  /// Clears recorded spans and restarts the epoch. Call between runs; any
  /// span still open when Reset runs is dropped on close.
  void Reset();

  /// Copies the recorded spans in creation order.
  std::vector<SpanRecord> Snapshot() const;

  /// Spans refused by OpenSpan since the last Reset() because the tracer
  /// was at capacity. Non-zero means the exported trace is truncated.
  int64_t DroppedSpans() const;

  // Internal API used by ScopedSpan. Returns the span index, or -1 when
  // the tracer is at capacity.
  int OpenSpan(const char* name);
  void CloseSpan(int index);

 private:
  /// Runaway guard: a span tree past this size is a bug, not a report.
  static constexpr size_t kMaxSpans = 1 << 20;

  Tracer();

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  int64_t spans_dropped_ = 0;  // guarded by mutex_
  std::chrono::steady_clock::time_point epoch_;
  uint64_t generation_ = 0;  // bumped by Reset; invalidates stale stacks
  int next_thread_index_ = 0;
};

/// RAII span handle behind DISTINCT_TRACE_SPAN. No-op when observability
/// is off at open time.
class ScopedSpan {
 public:
  /// `record` false opens nothing (for code that also runs on workers).
  explicit ScopedSpan(const char* name, bool record = true) {
    if (record && Enabled()) {
      index_ = Tracer::Global().OpenSpan(name);
    }
  }
  ~ScopedSpan() {
    if (index_ >= 0) {
      Tracer::Global().CloseSpan(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_ = -1;
};

}  // namespace obs
}  // namespace distinct

#define DISTINCT_TRACE_CONCAT_INNER(a, b) a##b
#define DISTINCT_TRACE_CONCAT(a, b) DISTINCT_TRACE_CONCAT_INNER(a, b)

/// Opens a span named `name` until the end of the enclosing scope.
#define DISTINCT_TRACE_SPAN(name)                                  \
  ::distinct::obs::ScopedSpan DISTINCT_TRACE_CONCAT(               \
      distinct_obs_span_, __LINE__)(name)

#endif  // DISTINCT_OBS_TRACE_H_
