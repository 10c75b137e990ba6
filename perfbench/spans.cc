#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint32_t SpanRecorder::ThreadIdLocked() {
  const auto [it, inserted] = thread_ids_.emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(thread_ids_.size()));
  return it->second;
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int64_t>& stack = open_[std::this_thread::get_id()];
  Span span;
  span.name = name;
  span.start_ns = now;
  span.parent = stack.empty() ? parent : stack.back();
  span.thread = ThreadIdLocked();
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  stack.push_back(id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int64_t>& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const double ms : DurationsMs(name)) total += ms;
  return total / 1e3;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::SelfTimes()
    const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<size_t>> children(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0 && all[i].end_ns >= 0) {
      children[static_cast<size_t>(all[i].parent)].push_back(i);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end_ns < 0) continue;
    const std::string layer = LayerOf(span.name);
    const int64_t duration = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> intervals;
    for (const size_t c : children[i]) {
      intervals.emplace_back(std::max(all[c].start_ns, span.start_ns),
                             std::min(all[c].end_ns, span.end_ns));
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    LayerTime& time = layers[layer];
    ++time.spans;
    time.self_s += static_cast<double>(duration - covered) / 1e9;
    const bool nested_in_own_layer =
        span.parent >= 0 &&
        LayerOf(all[static_cast<size_t>(span.parent)].name) == layer;
    if (!nested_in_own_layer) {
      time.busy_s += static_cast<double>(duration) / 1e9;
    }
  }
  return layers;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& metrics_json) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"metrics\":" << metrics_json
      << ",\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end_ns < 0) continue;
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out << (first ? "" : ",") << "\n{\"name\":\"" << JsonEscape(span.name)
        << "\",\"cat\":\"" << JsonEscape(LayerOf(span.name))
        << "\",\"ph\":\"X\"," << times << ",\"pid\":0,\"tid\":" << span.thread
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
