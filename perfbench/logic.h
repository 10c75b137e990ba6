// Pure logic of the repository benchmark: order statistics, the seeded
// traffic schedules, open-loop latency accounting, failure accounting and
// the output digest. Nothing here touches the DISTINCT library, so the
// benchmark's own tests (logic_test.cc) pin it without building a world.

#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] of `values` (the "type 7"
/// definition numpy uses by default); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// True when a sample of `n` values leaves at least `min_beyond` of them
/// strictly above the `percentile`-th percentile: n * (1 - p/100) >=
/// min_beyond.
bool HasTailSamples(size_t n, double percentile, int min_beyond = 10);

/// The highest of the standard reporting percentiles (99.9, 99, 95, 90, 75,
/// 50) that still has at least `min_beyond` samples beyond it, capped at
/// `cap`. `percentile` is 0 when even the median lacks the samples.
struct TailPercentile {
  double percentile = 0.0;
  double value = 0.0;
};
TailPercentile HighestTailPercentile(const std::vector<double>& samples,
                                     double cap = 99.0, int min_beyond = 10);

/// Deterministic 64-bit generator (SplitMix64). Used instead of the
/// standard distributions, whose output is implementation-defined, so a
/// seed names the same inputs on every toolchain.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n); n must be > 0.
  uint64_t Below(uint64_t n);
  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1: P(rank k) proportional to 1/(k+1)^s.
/// Sampled by binary search over the precomputed CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from the start) of the first `count` arrivals
/// of a Poisson process of `rate` per second; ascending. Drawn as a
/// unit-rate process scaled by 1/rate, so one seed gives the same arrival
/// pattern, stretched or compressed, at every rate.
std::vector<double> PoissonArrivals(double rate, size_t count, Rng& rng);

/// One request of an open-loop run. Times are seconds on one clock.
struct Request {
  double scheduled = 0.0;  // when the schedule said to send it
  double sent = -1.0;      // when the generator actually wrote it
  double done = -1.0;      // when its answer was read; < 0 = never
};

/// Open-loop latency: from the scheduled send time to the answer, so a
/// stall that delays later sends is charged to those requests too.
double OpenLoopLatencyMs(const Request& request);

/// How late the generator wrote a request, in ms.
double GeneratorLagMs(const Request& request);

/// Outcome of one attempted operation, for failure accounting.
enum class Outcome {
  kOk,
  kRefused,   // the system declined it (overloaded, deadline, not served)
  kMismatch,  // answered, but not what the reference computation gives
  kError,     // the call itself failed
};

/// Counts attempted and failed operations. Refusals and mismatches are
/// failures; a refused request also misses every latency limit.
class FailureAccount {
 public:
  void Record(Outcome outcome);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return refused_ + mismatched_ + errors_; }
  int64_t refused() const { return refused_; }
  int64_t mismatched() const { return mismatched_; }
  /// failed / attempted; 0 when nothing was attempted.
  double fail_share() const;

 private:
  int64_t attempted_ = 0;
  int64_t refused_ = 0;
  int64_t mismatched_ = 0;
  int64_t errors_ = 0;
};

/// Latencies to count against a limit: answered requests contribute their
/// open-loop latency, refused or unanswered ones +infinity (they miss any
/// limit).
std::vector<double> LatenciesWithMisses(const std::vector<Request>& requests,
                                        const std::vector<bool>& refused);

/// FNV-1a over a byte stream; Add() calls compose like one concatenation.
class Digest {
 public:
  void Add(const void* data, size_t size);
  void AddString(std::string_view s);
  template <typename T>
  void AddValue(const T& value) {
    Add(&value, sizeof(value));
  }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
