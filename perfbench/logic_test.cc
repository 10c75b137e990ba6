// Tests of the benchmark's own logic (no library, no world):
//   ctest --test-dir <build dir>   or run perfbench_logic_test directly.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "logic.h"
#include "spans.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void TestTailPercentileNeedsTenBeyond() {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  TailPercentile tail = HighestTailPercentile(samples, 99.9);
  EXPECT(tail.percentile == 99.0);
  EXPECT(std::fabs(tail.value - Quantile(samples, 0.99)) < 1e-12);
  // 999 samples: p99 leaves 9.99 beyond, so p95 is the highest.
  samples.pop_back();
  EXPECT(HighestTailPercentile(samples, 99.9).percentile == 95.0);
  // 100 samples: p90 leaves exactly 10.
  std::vector<double> hundred(samples.begin(), samples.begin() + 100);
  EXPECT(HighestTailPercentile(hundred, 99.0).percentile == 90.0);
  EXPECT(HighestTailPercentile(hundred, 90.0).percentile == 90.0);
  // A cap below the qualifying percentile wins.
  EXPECT(HighestTailPercentile(samples, 75.0).percentile == 75.0);
  // Too few samples even for the median.
  EXPECT(HighestTailPercentile({1, 2, 3}).percentile == 0.0);
  EXPECT(HasTailSamples(20, 50.0));
  EXPECT(!HasTailSamples(19, 50.0));
}

void TestQuantileAndMedian() {
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 2, 3}) == 2.5);
  EXPECT(Median({}) == 0.0);
  EXPECT(Quantile({0, 10}, 0.25) == 2.5);
  const double inf = std::numeric_limits<double>::infinity();
  // A refused request (+inf) reached by the quantile makes it a miss.
  EXPECT(std::isinf(Quantile({1, 2, 3, inf}, 0.99)));
  EXPECT(Quantile({1, 2, 3, inf}, 0.5) == 2.5);
}

void TestZipfDeterministicPerSeed() {
  const ZipfSampler zipf(1000, 1.0);
  auto draw = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<size_t> out;
    for (int i = 0; i < 2000; ++i) out.push_back(zipf.Sample(rng));
    return out;
  };
  EXPECT(draw(7) == draw(7));
  EXPECT(draw(7) != draw(8));
  // Rank 0 of Zipf(1) over 1000 ranks has mass 1/H(1000) ~ 0.134.
  const std::vector<size_t> d = draw(11);
  size_t head = 0;
  for (const size_t r : d) {
    head += r == 0;
    EXPECT(r < 1000);
  }
  EXPECT(head > 200 && head < 340);
}

void TestPoissonDeterministicPerSeed() {
  auto arrivals = [](uint64_t seed, double rate) {
    Rng rng(seed);
    return PoissonArrivals(rate, 1000, rng);
  };
  const std::vector<double> a = arrivals(3, 200.0);
  EXPECT(a == arrivals(3, 200.0));
  EXPECT(a != arrivals(4, 200.0));
  EXPECT(a.size() == 1000);
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i] > a[i - 1]);
  // 1000 arrivals at 200/s span about 5 s.
  EXPECT(a.back() > 4.5 && a.back() < 5.5);
  // The same seed at twice the rate is the same pattern, twice as dense.
  const std::vector<double> b = arrivals(3, 400.0);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT(std::fabs(b[i] * 2.0 - a[i]) < 1e-9);
  }
}

void TestOpenLoopLatencyFromSchedule() {
  // Due at 1.000 s, written late at 1.040 s, answered at 1.050 s: the
  // user waited 50 ms, not the 10 ms the connection saw.
  Request r;
  r.scheduled = 1.000;
  r.sent = 1.040;
  r.done = 1.050;
  EXPECT(std::fabs(OpenLoopLatencyMs(r) - 50.0) < 1e-9);
  EXPECT(std::fabs(GeneratorLagMs(r) - 40.0) < 1e-9);
  Request never;
  never.scheduled = 2.0;
  EXPECT(std::isinf(OpenLoopLatencyMs(never)));
}

void TestFailureAccounting() {
  FailureAccount account;
  for (int i = 0; i < 6; ++i) account.Record(Outcome::kOk);
  account.Record(Outcome::kRefused);
  account.Record(Outcome::kMismatch);
  EXPECT(account.attempted() == 8);
  EXPECT(account.failed() == 2);
  EXPECT(account.refused() == 1 && account.mismatched() == 1);
  EXPECT(account.fail_share() == 0.25);
  account.Record(Outcome::kError);
  EXPECT(account.attempted() == 9 && account.failed() == 3);
  EXPECT(FailureAccount().fail_share() == 0.0);

  // A refused request misses any latency limit, however fast it returned.
  std::vector<Request> requests(4);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].scheduled = 0.0;
    requests[i].done = 0.001;
  }
  const std::vector<double> latencies =
      LatenciesWithMisses(requests, {false, false, false, true});
  EXPECT(std::isinf(latencies[3]));
  EXPECT(std::fabs(latencies[0] - 1.0) < 1e-9);
}

void TestSpanSelfTime() {
  SpanRecorder spans;
  {
    ScopedSpan outer(&spans, "core.scan");
    {
      ScopedSpan inner(&spans, "prop.build");
    }
    {
      ScopedSpan nested(&spans, "core.group");
    }
  }
  const std::vector<SpanRecorder::Span> all = spans.spans();
  EXPECT(all.size() == 3);
  EXPECT(all[1].parent == 0 && all[2].parent == 0 && all[0].parent == -1);
  const auto layers = spans.SelfTimes();
  EXPECT(layers.at("core").spans == 2);
  EXPECT(layers.at("prop").spans == 1);
  // core's busy time counts the outer span only (core.group nests in it);
  // self times of all layers add up to the root's duration.
  const double root_s =
      static_cast<double>(all[0].end_ns - all[0].start_ns) / 1e9;
  EXPECT(std::fabs(layers.at("core").busy_s - root_s) < 1e-12);
  EXPECT(std::fabs(layers.at("core").self_s + layers.at("prop").self_s -
                   root_s) < 1e-9);
  EXPECT(LayerOf("sim.pair_fill") == "sim");
  EXPECT(LayerOf("cluster") == "cluster");
}

}  // namespace

int main() {
  TestTailPercentileNeedsTenBeyond();
  TestQuantileAndMedian();
  TestZipfDeterministicPerSeed();
  TestPoissonDeterministicPerSeed();
  TestOpenLoopLatencyFromSchedule();
  TestFailureAccounting();
  TestSpanSelfTime();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench logic tests: all passed\n");
  return 0;
}
