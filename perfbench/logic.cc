#include "logic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  // A missed request reads +inf; any quantile that reaches it is a miss.
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

bool HasTailSamples(size_t n, double percentile, int min_beyond) {
  // Integer-safe form of n * (1 - p/100) >= min_beyond, with p in tenths.
  const auto tenths = static_cast<int64_t>(std::llround(percentile * 10.0));
  return static_cast<int64_t>(n) * (1000 - tenths) >=
         static_cast<int64_t>(min_beyond) * 1000;
}

TailPercentile HighestTailPercentile(const std::vector<double>& samples,
                                     double cap, int min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    if (p > cap || !HasTailSamples(samples.size(), p, min_beyond)) continue;
    return {p, Quantile(samples, p / 100.0)};
  }
  return {};
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) {
  // Rejection sampling keeps the draw unbiased for every n.
  const uint64_t limit = std::numeric_limits<uint64_t>::max() -
                         std::numeric_limits<uint64_t>::max() % n;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % n;
}

double Rng::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<double> PoissonArrivals(double rate, size_t count, Rng& rng) {
  std::vector<double> arrivals;
  arrivals.reserve(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += rng.Exponential(1.0);
    arrivals.push_back(t / rate);
  }
  return arrivals;
}

double OpenLoopLatencyMs(const Request& request) {
  if (request.done < 0.0) return std::numeric_limits<double>::infinity();
  return (request.done - request.scheduled) * 1e3;
}

double GeneratorLagMs(const Request& request) {
  if (request.sent < 0.0) return 0.0;
  return std::max(0.0, request.sent - request.scheduled) * 1e3;
}

void FailureAccount::Record(Outcome outcome) {
  ++attempted_;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kRefused:
      ++refused_;
      break;
    case Outcome::kMismatch:
      ++mismatched_;
      break;
    case Outcome::kError:
      ++errors_;
      break;
  }
}

double FailureAccount::fail_share() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(attempted_);
}

std::vector<double> LatenciesWithMisses(const std::vector<Request>& requests,
                                        const std::vector<bool>& refused) {
  std::vector<double> out;
  out.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const bool miss = i < refused.size() && refused[i];
    out.push_back(miss ? std::numeric_limits<double>::infinity()
                       : OpenLoopLatencyMs(requests[i]));
  }
  return out;
}

void Digest::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::AddString(std::string_view s) {
  AddValue(static_cast<uint64_t>(s.size()));
  Add(s.data(), s.size());
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace perfbench
