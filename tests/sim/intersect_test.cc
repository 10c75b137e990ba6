// Differential and property tests for the merge-join ISA family
// (sim/intersect.h): every variant must return bit-identical features to
// the scalar merge — whose accumulation order is itself pinned against a
// naive hash-map reference — over empty, singleton, fully-overlapping,
// duplicate-tuple, skewed, and block-tail inputs, plus the dispatch shim's
// resolution rules and the two candidate-marking machines' bit equality.

#include "sim/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/fused_kernel.h"
#include "sim/profile_arena.h"

namespace distinct {
namespace {

// ---------------------------------------------------------------------------
// Naive reference: hash maps, no shared iteration order with any variant.
// ---------------------------------------------------------------------------

FusedPathFeatures NaiveFeatures(const NeighborProfile& a,
                                const NeighborProfile& b) {
  FusedPathFeatures features;
  if (a.empty() || b.empty()) {
    return features;
  }
  std::unordered_map<int32_t, const ProfileEntry*> index;
  for (const ProfileEntry& e : b.entries()) {
    index[e.tuple] = &e;
  }
  double numerator = 0.0;
  double denominator = 0.0;
  double ab = 0.0;
  double ba = 0.0;
  for (const ProfileEntry& e : a.entries()) {
    const auto it = index.find(e.tuple);
    if (it == index.end()) {
      denominator += e.forward;
      continue;
    }
    numerator += std::min(e.forward, it->second->forward);
    denominator += std::max(e.forward, it->second->forward);
    ab += e.forward * it->second->reverse;
    ba += it->second->forward * e.reverse;
  }
  std::unordered_map<int32_t, char> in_a;
  for (const ProfileEntry& e : a.entries()) {
    in_a[e.tuple] = 1;
  }
  for (const ProfileEntry& e : b.entries()) {
    if (in_a.find(e.tuple) == in_a.end()) {
      denominator += e.forward;
    }
  }
  if (denominator > 0.0) {
    features.resemblance = numerator / denominator;
  }
  features.walk = 0.5 * (ab + ba);
  return features;
}

/// Builds a one-path, two-reference arena from two tuple lists; forwards
/// and reverses are deterministic functions of the tuple so any divergence
/// reproduces.
ProfileArena TwoSliceArena(const std::vector<int32_t>& a,
                           const std::vector<int32_t>& b,
                           std::vector<std::vector<NeighborProfile>>* raw) {
  auto entries_of = [](const std::vector<int32_t>& tuples) {
    std::vector<ProfileEntry> entries;
    entries.reserve(tuples.size());
    for (const int32_t t : tuples) {
      const double fwd = 0.05 + 0.9 * std::fmod(static_cast<double>(t) * 0.37,
                                                1.0);
      const double rev = 0.05 + 0.9 * std::fmod(static_cast<double>(t) * 0.71,
                                                1.0);
      entries.push_back(ProfileEntry{t, fwd, rev});
    }
    return entries;
  };
  raw->clear();
  raw->resize(2);
  (*raw)[0].emplace_back(entries_of(a));
  (*raw)[1].emplace_back(entries_of(b));
  return ProfileArena::FromProfiles(*raw);
}

/// Every variant against the scalar contract (EXPECT_EQ — bit identity)
/// and the scalar against the naive reference (EXPECT_NEAR — independent
/// computation), both pair orders.
void ExpectAllVariantsAgree(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b) {
  std::vector<std::vector<NeighborProfile>> raw;
  const ProfileArena arena = TwoSliceArena(a, b, &raw);
  const ProfileArena::Path& path = arena.path(0);
  for (const auto& [i, j] : {std::pair<size_t, size_t>{1, 0},
                             std::pair<size_t, size_t>{0, 1}}) {
    const FusedPathFeatures scalar = FusedMergeJoin(path, i, j);
    const FusedPathFeatures gallop = FusedMergeJoinGallop(path, i, j);
    const FusedPathFeatures avx2 = FusedMergeJoinAvx2(path, i, j);
    EXPECT_EQ(scalar.resemblance, gallop.resemblance);
    EXPECT_EQ(scalar.walk, gallop.walk);
    EXPECT_EQ(scalar.resemblance, avx2.resemblance);
    EXPECT_EQ(scalar.walk, avx2.walk);
    const FusedPathFeatures naive = NaiveFeatures(raw[i][0], raw[j][0]);
    EXPECT_NEAR(scalar.resemblance, naive.resemblance, 1e-12);
    EXPECT_NEAR(scalar.walk, naive.walk, 1e-12);
  }
}

std::vector<int32_t> Iota(int32_t begin, int32_t count, int32_t step = 1) {
  std::vector<int32_t> tuples;
  tuples.reserve(static_cast<size_t>(count));
  for (int32_t k = 0; k < count; ++k) {
    tuples.push_back(begin + k * step);
  }
  return tuples;
}

// ---------------------------------------------------------------------------
// Dispatch shim.
// ---------------------------------------------------------------------------

TEST(KernelIsaTest, ParseRoundTripsEveryName) {
  for (const KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                              KernelIsa::kGallop, KernelIsa::kAvx2}) {
    KernelIsa parsed = KernelIsa::kScalar;
    ASSERT_TRUE(ParseKernelIsa(KernelIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  KernelIsa parsed = KernelIsa::kGallop;
  EXPECT_FALSE(ParseKernelIsa("neon", &parsed));
  EXPECT_FALSE(ParseKernelIsa("", &parsed));
  EXPECT_FALSE(ParseKernelIsa("AVX2", &parsed));
  EXPECT_EQ(parsed, KernelIsa::kGallop);  // rejected input leaves out alone
}

TEST(KernelIsaTest, ResolveNeverReturnsAutoAndRespectsSupport) {
  EXPECT_EQ(ResolveKernelIsa(KernelIsa::kScalar), KernelIsa::kScalar);
  EXPECT_EQ(ResolveKernelIsa(KernelIsa::kGallop), KernelIsa::kGallop);
  // auto: the fastest supported; an explicit avx2 request degrades to
  // scalar (not gallop) when the host or build lacks it.
  if (KernelIsaAvx2Available()) {
    EXPECT_EQ(ResolveKernelIsa(KernelIsa::kAuto), KernelIsa::kAvx2);
    EXPECT_EQ(ResolveKernelIsa(KernelIsa::kAvx2), KernelIsa::kAvx2);
  } else {
    EXPECT_EQ(ResolveKernelIsa(KernelIsa::kAuto), KernelIsa::kGallop);
    EXPECT_EQ(ResolveKernelIsa(KernelIsa::kAvx2), KernelIsa::kScalar);
  }
}

TEST(KernelIsaTest, DispatchTableMatchesVariants) {
  EXPECT_EQ(MergeJoinForIsa(KernelIsa::kScalar), &FusedMergeJoin);
  EXPECT_EQ(MergeJoinForIsa(KernelIsa::kGallop), &FusedMergeJoinGallop);
  EXPECT_EQ(MergeJoinForIsa(KernelIsa::kAvx2), &FusedMergeJoinAvx2);
}

// ---------------------------------------------------------------------------
// Hand-built slice shapes.
// ---------------------------------------------------------------------------

TEST(IntersectEdgeTest, EmptyAndSingletonSlices) {
  ExpectAllVariantsAgree({}, {});
  ExpectAllVariantsAgree({}, {5});
  ExpectAllVariantsAgree({3}, {});
  ExpectAllVariantsAgree({7}, {7});    // singleton match
  ExpectAllVariantsAgree({7}, {9});    // singleton mismatch
  ExpectAllVariantsAgree({}, Iota(0, 100));
  ExpectAllVariantsAgree({50}, Iota(0, 100));  // singleton inside a run
}

TEST(IntersectEdgeTest, FullyOverlappingAndDuplicateTupleSets) {
  // Identical tuple sets: union == intersection, every element matches.
  ExpectAllVariantsAgree(Iota(0, 40), Iota(0, 40));
  ExpectAllVariantsAgree(Iota(10, 7, 3), Iota(10, 7, 3));
  // One side duplicated inside the other: proper containment.
  ExpectAllVariantsAgree(Iota(0, 100), Iota(0, 100, 5));
}

TEST(IntersectEdgeTest, DisjointRunsBothOrders) {
  // All of a below all of b, then interleaved blocks.
  ExpectAllVariantsAgree(Iota(0, 30), Iota(100, 30));
  ExpectAllVariantsAgree(Iota(0, 64, 2), Iota(1, 64, 2));  // perfect zipper
}

TEST(IntersectEdgeTest, BlockTailLengthsZeroThroughSixteen) {
  // Skewed pairs whose long-side runs end 0..16 past an 8-tuple block
  // boundary — the AVX2 variant's in-block mask, block-exit, and scalar
  // tail seams, and the gallop probe's run-end landing spots.
  for (int32_t tail = 0; tail <= 16; ++tail) {
    const int32_t long_len = 32 + tail;
    std::vector<int32_t> long_side = Iota(0, long_len);
    // Short side: one match inside the run, one tuple past the end.
    ExpectAllVariantsAgree(long_side, {long_len / 2, long_len + 8});
    // No match at all, probe runs off the slice end.
    ExpectAllVariantsAgree(long_side, {long_len + 1, long_len + 2});
  }
}

TEST(IntersectEdgeTest, ZeroForwardProbabilitiesKeepDenominatorGuard) {
  // All-zero forwards: denominator 0 -> resemblance exactly 0 per the
  // SetResemblance guard, in every variant.
  std::vector<std::vector<NeighborProfile>> raw(2);
  raw[0].emplace_back(
      std::vector<ProfileEntry>{{1, 0.0, 0.4}, {2, 0.0, 0.6}});
  raw[1].emplace_back(
      std::vector<ProfileEntry>{{1, 0.0, 0.9}, {3, 0.0, 0.1}});
  const ProfileArena arena = ProfileArena::FromProfiles(raw);
  for (const auto join : {&FusedMergeJoin, &FusedMergeJoinGallop,
                          &FusedMergeJoinAvx2}) {
    const FusedPathFeatures features = join(arena.path(0), 1, 0);
    EXPECT_EQ(features.resemblance, 0.0);
    // Both directed walks multiply by a forward probability, so they are
    // exactly 0 too — no NaN/Inf leaks from the 0/0 resemblance case.
    EXPECT_EQ(features.walk, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential sweep.
// ---------------------------------------------------------------------------

class IntersectDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IntersectDifferentialTest, RandomSlicesAllLengthMixes) {
  Rng rng(GetParam());
  // Length classes chosen to cross the 8x gallop/AVX2 skew trigger in both
  // directions, plus balanced pairs that stay on the scalar path.
  const int kLengths[] = {0, 1, 2, 7, 8, 9, 16, 40, 200};
  for (const int len_a : kLengths) {
    for (const int len_b : kLengths) {
      std::vector<int32_t> a;
      std::vector<int32_t> b;
      int32_t t = 0;
      for (int k = 0; k < len_a; ++k) {
        t += 1 + static_cast<int32_t>(rng.UniformInt(0, 4));
        a.push_back(t);
      }
      t = 0;
      for (int k = 0; k < len_b; ++k) {
        t += 1 + static_cast<int32_t>(rng.UniformInt(0, 4));
        b.push_back(t);
      }
      ExpectAllVariantsAgree(a, b);
    }
  }
}

TEST_P(IntersectDifferentialTest, FusedFeaturesIsaParameterIsBitIdentical) {
  Rng rng(GetParam() + 500);
  const size_t kRefs = 8;
  const size_t kPaths = 3;
  std::vector<std::vector<NeighborProfile>> profiles(kRefs);
  for (size_t r = 0; r < kRefs; ++r) {
    for (size_t p = 0; p < kPaths; ++p) {
      std::vector<ProfileEntry> entries;
      // Mix slice lengths so some pairs cross the skew trigger.
      const int len = static_cast<int>(rng.UniformInt(0, 2)) == 0
                          ? static_cast<int>(rng.UniformInt(0, 120))
                          : static_cast<int>(rng.UniformInt(0, 6));
      int32_t t = 0;
      for (int k = 0; k < len; ++k) {
        t += 1 + static_cast<int32_t>(rng.UniformInt(0, 2));
        entries.push_back(
            ProfileEntry{t, rng.UniformDouble(), rng.UniformDouble()});
      }
      profiles[r].emplace_back(std::move(entries));
    }
  }
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PairFeatures scalar =
          FusedFeatures(arena, i, j, KernelIsa::kScalar);
      for (const KernelIsa isa :
           {KernelIsa::kAuto, KernelIsa::kGallop, KernelIsa::kAvx2}) {
        const PairFeatures other = FusedFeatures(arena, i, j, isa);
        for (size_t p = 0; p < kPaths; ++p) {
          EXPECT_EQ(scalar.resemblance[p], other.resemblance[p]);
          EXPECT_EQ(scalar.walk[p], other.walk[p]);
        }
      }
    }
  }
}

TEST_P(IntersectDifferentialTest, CandidateMachinesProduceIdenticalBits) {
  Rng rng(GetParam() + 900);
  // n >= 64 so the bitset rows span multiple words and a row's cut at r
  // lands at every alignment.
  const size_t kRefs = 70;
  const size_t kPaths = 2;
  std::vector<std::vector<NeighborProfile>> profiles(kRefs);
  for (size_t r = 0; r < kRefs; ++r) {
    for (size_t p = 0; p < kPaths; ++p) {
      std::vector<ProfileEntry> entries;
      for (int32_t t = 0; t < 30; ++t) {
        if (rng.Bernoulli(0.2)) {
          entries.push_back(
              ProfileEntry{t, rng.UniformDouble(), rng.UniformDouble()});
        }
      }
      profiles[r].emplace_back(std::move(entries));
    }
  }
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);

  CandidateBuildOptions grouped;
  grouped.bitset_min_refs = 1 << 30;  // force the sparse grouped marking
  CandidateBuildOptions bitset;
  bitset.bitset_min_refs = 0;
  bitset.bitset_cost_factor = 0.0;  // force the bitset rows
  const std::vector<uint32_t> both_paths = {0, 1};
  const CandidateSet from_grouped =
      CandidateSet::Build(arena, both_paths, grouped);
  const CandidateSet from_bitset =
      CandidateSet::Build(arena, both_paths, bitset);
  const CandidateSet from_default = CandidateSet::Build(arena, both_paths);

  EXPECT_EQ(from_grouped.count(), from_bitset.count());
  EXPECT_EQ(from_grouped.count(), from_default.count());
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(from_grouped.mask(i, j), from_bitset.mask(i, j))
          << "pair (" << i << ", " << j << ")";
      EXPECT_EQ(from_grouped.mask(i, j), from_default.mask(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectDifferentialTest,
                         ::testing::Values(17, 99, 2024));

}  // namespace
}  // namespace distinct
