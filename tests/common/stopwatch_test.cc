#include "common/stopwatch.h"

#include <gtest/gtest.h>

namespace distinct {
namespace {

TEST(StopwatchTest, ElapsedNanosIsMonotonic) {
  Stopwatch watch;
  int64_t previous = watch.ElapsedNanos();
  EXPECT_GE(previous, 0);
  // Steady clock: successive reads never go backwards.
  for (int i = 0; i < 1000; ++i) {
    const int64_t now = watch.ElapsedNanos();
    ASSERT_GE(now, previous);
    previous = now;
  }
}

TEST(StopwatchTest, UnitsAgree) {
  Stopwatch watch;
  // Spin briefly so every reading is non-zero.
  volatile int sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + 1;
  }
  const int64_t nanos = watch.ElapsedNanos();
  const double seconds = watch.Seconds();
  EXPECT_GT(nanos, 0);
  // Seconds() was read after ElapsedNanos(): at least as much time elapsed.
  EXPECT_GE(seconds, static_cast<double>(nanos) / 1e9);
  EXPECT_GE(watch.Millis(), seconds * 1e3);
}

TEST(StopwatchTest, ResetRestartsTheClock) {
  Stopwatch watch;
  volatile int sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + 1;
  }
  const int64_t before = watch.ElapsedNanos();
  watch.Reset();
  const int64_t after = watch.ElapsedNanos();
  EXPECT_GT(before, 0);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace distinct
