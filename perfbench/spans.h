// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each public call it makes into a
// layer of the library (the program itself is not instrumented here).
// A span carries its name, start, end and the span that was open on the
// same thread when it began. Spans stay in memory and are written out as
// one Chrome-trace JSON file when the run ends.
//
// Span names are "<layer>.<step>"; the layer is the part before the first
// dot, and SelfTimes() folds spans into per-layer busy and self time.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // since the recorder was created
    int64_t end_ns = -1;   // -1 while open
    int64_t parent = -1;   // index of the enclosing span on that thread
    uint32_t thread = 0;   // dense id of the recording thread
  };

  SpanRecorder();

  /// Opens a span as a child of the innermost open span of this thread,
  /// or of `parent` when this thread has none open (a task a worker runs
  /// for a span opened on another thread). Thread-safe.
  int64_t Begin(const std::string& name, int64_t parent = -1);
  /// Closes span `id` (must be the innermost open span of this thread).
  void End(int64_t id);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Total duration of every closed span named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Durations of every closed span named `name`, in ms.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Per layer: `busy` sums the durations of its spans whose parent is of
  /// another layer (a span nested in its own layer is not counted twice);
  /// `self` sums, over all its spans, the duration minus the part of the
  /// span's interval its children cover (the union of their intervals, so
  /// children running in parallel are not subtracted twice).
  struct LayerTime {
    double busy_s = 0.0;
    double self_s = 0.0;
    int64_t spans = 0;
  };
  std::map<std::string, LayerTime> SelfTimes() const;

  /// Writes the spans as Chrome-trace JSON ("X" events, µs), with each
  /// span's index and parent index in its args, plus `metrics` as a
  /// top-level object. False on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metrics_json) const;

 private:
  int64_t NowNs() const;
  uint32_t ThreadIdLocked();

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::map<std::thread::id, uint32_t> thread_ids_;
  std::map<std::thread::id, std::vector<int64_t>> open_;  // per-thread stack
};

/// RAII span; a null recorder makes it a no-op, so untraced code paths
/// pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             int64_t parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent) : -1) {}
  int64_t id() const { return id_; }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// The layer a span name belongs to: the text before the first '.'.
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
