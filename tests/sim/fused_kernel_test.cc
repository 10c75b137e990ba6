#include "sim/fused_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "../test_util.h"
#include "cluster/agglomerative.h"
#include "common/rng.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "obs/metrics.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"
#include "sim/similarity_model.h"

namespace distinct {
namespace {

// ---------------------------------------------------------------------------
// Naive hash-map reference implementations. Deliberately share no code (and
// no iteration order) with the merge-join kernels: resemblance walks the key
// union of two hash maps, the walks probe one map per direction. Agreement
// is up to floating-point reassociation, hence EXPECT_NEAR.
// ---------------------------------------------------------------------------

double NaiveResemblance(const NeighborProfile& a, const NeighborProfile& b) {
  if (a.empty() || b.empty()) {
    return 0.0;
  }
  std::unordered_map<int32_t, double> fa;
  std::unordered_map<int32_t, double> fb;
  std::set<int32_t> keys;
  for (const ProfileEntry& e : a.entries()) {
    fa[e.tuple] = e.forward;
    keys.insert(e.tuple);
  }
  for (const ProfileEntry& e : b.entries()) {
    fb[e.tuple] = e.forward;
    keys.insert(e.tuple);
  }
  double numerator = 0.0;
  double denominator = 0.0;
  for (const int32_t t : keys) {
    const auto ia = fa.find(t);
    const auto ib = fb.find(t);
    const double pa = ia == fa.end() ? 0.0 : ia->second;
    const double pb = ib == fb.end() ? 0.0 : ib->second;
    numerator += std::min(pa, pb);
    denominator += std::max(pa, pb);
  }
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double NaiveSymmetricWalk(const NeighborProfile& a, const NeighborProfile& b) {
  std::unordered_map<int32_t, const ProfileEntry*> index;
  for (const ProfileEntry& e : b.entries()) {
    index[e.tuple] = &e;
  }
  double ab = 0.0;
  double ba = 0.0;
  for (const ProfileEntry& e : a.entries()) {
    const auto it = index.find(e.tuple);
    if (it != index.end()) {
      ab += e.forward * it->second->reverse;
      ba += it->second->forward * e.reverse;
    }
  }
  return 0.5 * (ab + ba);
}

/// The clusterer's singleton-pair similarity for a (resem, walk) cell pair
/// — what the mass-bound prune upper-bounds.
double CombinedSimilarity(double resem, double walk, ClusterMeasure measure,
                          CombineRule combine) {
  switch (measure) {
    case ClusterMeasure::kResemblanceOnly:
      return resem;
    case ClusterMeasure::kWalkOnly:
      return walk;
    case ClusterMeasure::kComposite:
      break;
  }
  if (combine == CombineRule::kArithmeticMean) {
    return 0.5 * (resem + walk);
  }
  return std::sqrt(resem * walk);
}

/// Random per-reference profiles over a small shared tuple universe so
/// overlap, disjointness, and empties all occur. profiles[ref][path].
std::vector<std::vector<NeighborProfile>> RandomProfiles(Rng& rng,
                                                         size_t num_refs,
                                                         size_t num_paths) {
  std::vector<std::vector<NeighborProfile>> profiles(num_refs);
  for (size_t r = 0; r < num_refs; ++r) {
    for (size_t p = 0; p < num_paths; ++p) {
      std::vector<ProfileEntry> entries;
      if (!rng.Bernoulli(0.15)) {  // 15%: empty profile
        for (int t = 0; t < 24; ++t) {
          if (!rng.Bernoulli(0.3)) {
            continue;
          }
          // 10%: zero forward (exercises zero-denominator handling).
          const double fwd = rng.Bernoulli(0.1) ? 0.0 : rng.UniformDouble();
          entries.push_back(ProfileEntry{t, fwd, rng.UniformDouble()});
        }
      }
      profiles[r].emplace_back(std::move(entries));
    }
  }
  return profiles;
}

bool ShareAnyTuple(const std::vector<NeighborProfile>& a,
                   const std::vector<NeighborProfile>& b) {
  for (size_t p = 0; p < a.size(); ++p) {
    for (const ProfileEntry& ea : a[p].entries()) {
      for (const ProfileEntry& eb : b[p].entries()) {
        if (ea.tuple == eb.tuple) {
          return true;
        }
      }
    }
  }
  return false;
}

class FusedDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedDifferentialTest, MatchesNaiveHashMapReference) {
  Rng rng(GetParam());
  const size_t kRefs = 12;
  const size_t kPaths = 3;
  const auto profiles = RandomProfiles(rng, kRefs, kPaths);
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  ASSERT_EQ(arena.num_refs(), kRefs);
  ASSERT_EQ(arena.num_paths(), kPaths);

  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PairFeatures fused = FusedFeatures(arena, i, j);
      ASSERT_EQ(fused.resemblance.size(), kPaths);
      for (size_t p = 0; p < kPaths; ++p) {
        EXPECT_NEAR(fused.resemblance[p],
                    NaiveResemblance(profiles[i][p], profiles[j][p]), 1e-12)
            << "pair (" << i << ", " << j << ") path " << p;
        EXPECT_NEAR(fused.walk[p],
                    NaiveSymmetricWalk(profiles[i][p], profiles[j][p]), 1e-12)
            << "pair (" << i << ", " << j << ") path " << p;
      }
    }
  }
}

TEST_P(FusedDifferentialTest, BitIdenticalToThreePassReference) {
  Rng rng(GetParam() + 1000);
  const size_t kRefs = 10;
  const auto profiles = RandomProfiles(rng, kRefs, /*num_paths=*/3);
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);

  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PairFeatures fused = FusedFeatures(arena, i, j);
      // The production reference path: SetResemblance + both
      // WalkProbability directions per path.
      const PairFeatures reference =
          ComputePairFeatures(profiles[i], profiles[j]);
      ASSERT_EQ(fused.resemblance.size(), reference.resemblance.size());
      for (size_t p = 0; p < fused.resemblance.size(); ++p) {
        // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the guarantee is bit-for-bit.
        EXPECT_EQ(fused.resemblance[p], reference.resemblance[p]);
        EXPECT_EQ(fused.walk[p], reference.walk[p]);
      }
    }
  }
}

TEST_P(FusedDifferentialTest, CandidateSetMatchesBruteForceOverlap) {
  Rng rng(GetParam() + 2000);
  const size_t kRefs = 14;
  const auto profiles = RandomProfiles(rng, kRefs, /*num_paths=*/2);
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  const CandidateSet candidates =
      CandidateSet::Build(arena, {0, 1});  // both paths
  ASSERT_EQ(candidates.num_refs(), kRefs);

  int64_t expected_count = 0;
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const bool overlap = ShareAnyTuple(profiles[i], profiles[j]);
      EXPECT_EQ(candidates.mask(i, j) != 0, overlap)
          << "pair (" << i << ", " << j << ")";
      expected_count += overlap ? 1 : 0;
      if (!overlap) {
        // Skipping a non-candidate is exact: every feature is zero.
        const PairFeatures features = FusedFeatures(arena, i, j);
        for (size_t p = 0; p < features.resemblance.size(); ++p) {
          EXPECT_EQ(features.resemblance[p], 0.0);
          EXPECT_EQ(features.walk[p], 0.0);
        }
      }
    }
  }
  EXPECT_EQ(candidates.count(), expected_count);
}

TEST_P(FusedDifferentialTest, UpperBoundDominatesTrueSimilarity) {
  Rng rng(GetParam() + 3000);
  const size_t kRefs = 10;
  const size_t kPaths = 3;
  const auto profiles = RandomProfiles(rng, kRefs, kPaths);
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  // Mixed-sign weights: negative ones must not weaken the bound below the
  // (clamped) true similarity.
  std::vector<double> resem_weights = {0.6, -0.2, 0.4};
  std::vector<double> walk_weights = {0.3, 0.7, -0.1};
  const SimilarityModel model(resem_weights, walk_weights);

  for (const ClusterMeasure measure :
       {ClusterMeasure::kComposite, ClusterMeasure::kResemblanceOnly,
        ClusterMeasure::kWalkOnly}) {
    for (const CombineRule combine :
         {CombineRule::kGeometricMean, CombineRule::kArithmeticMean}) {
      PrunePolicy policy;
      policy.measure = measure;
      policy.combine = combine;
      for (size_t i = 1; i < kRefs; ++i) {
        for (size_t j = 0; j < i; ++j) {
          const PairFeatures features = FusedFeatures(arena, i, j);
          const double actual =
              CombinedSimilarity(model.Resemblance(features),
                                 model.Walk(features), measure, combine);
          const double bound =
              PairSimilarityUpperBound(arena, model, policy, i, j);
          EXPECT_GE(bound, actual - 1e-12)
              << "pair (" << i << ", " << j << ") measure "
              << static_cast<int>(measure) << " combine "
              << static_cast<int>(combine);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedDifferentialTest,
                         ::testing::Values(11, 42, 777, 123456));

// ---------------------------------------------------------------------------
// Hand-built edge cases.
// ---------------------------------------------------------------------------

TEST(FusedKernelEdgeTest, EmptyProfilesYieldZeroFeatures) {
  std::vector<std::vector<NeighborProfile>> profiles(2);
  profiles[0].emplace_back(
      std::vector<ProfileEntry>{{1, 0.5, 0.5}, {2, 0.5, 0.5}});
  profiles[1].emplace_back();  // empty profile on the only path
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  EXPECT_EQ(arena.path(0).size(0), 2u);
  EXPECT_EQ(arena.path(0).size(1), 0u);

  const FusedPathFeatures features = FusedMergeJoin(arena.path(0), 1, 0);
  EXPECT_EQ(features.resemblance, 0.0);
  EXPECT_EQ(features.walk, 0.0);
  EXPECT_EQ(CandidateSet::Build(arena, {0}).mask(1, 0), 0u);
}

TEST(FusedKernelEdgeTest, ZeroForwardMassGivesZeroDenominator) {
  // Entries exist and tuples overlap, but every forward probability is 0:
  // the resemblance denominator is 0, so resemblance must be 0 (not NaN).
  std::vector<std::vector<NeighborProfile>> profiles(2);
  profiles[0].emplace_back(std::vector<ProfileEntry>{{1, 0.0, 0.4}});
  profiles[1].emplace_back(std::vector<ProfileEntry>{{1, 0.0, 0.7}});
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  const FusedPathFeatures features = FusedMergeJoin(arena.path(0), 1, 0);
  EXPECT_EQ(features.resemblance, 0.0);
  EXPECT_EQ(features.walk, 0.0);  // forward factors are 0 in both directions
  // Tuples overlap, so the pair is still a candidate.
  EXPECT_EQ(CandidateSet::Build(arena, {0}).mask(1, 0), 1u);
}

TEST(FusedKernelEdgeTest, DisjointTuplesAreNotCandidates) {
  std::vector<std::vector<NeighborProfile>> profiles(3);
  profiles[0].emplace_back(std::vector<ProfileEntry>{{1, 1.0, 1.0}});
  profiles[1].emplace_back(std::vector<ProfileEntry>{{2, 1.0, 1.0}});
  profiles[2].emplace_back(std::vector<ProfileEntry>{{1, 0.5, 0.5}});
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  const CandidateSet candidates = CandidateSet::Build(arena, {0});
  EXPECT_EQ(candidates.mask(1, 0), 0u);
  EXPECT_EQ(candidates.mask(2, 1), 0u);
  EXPECT_EQ(candidates.mask(2, 0), 1u);
  EXPECT_EQ(candidates.count(), 1);
}

TEST(FusedKernelEdgeTest, ArenaSlicesAreSortedAndDuplicateFree) {
  // NeighborProfile sorts its entries; the arena must preserve that order
  // (strictly increasing tuples per slice) — the merge-join relies on it.
  std::vector<std::vector<NeighborProfile>> profiles(2);
  profiles[0].emplace_back(std::vector<ProfileEntry>{
      {7, 0.1, 0.1}, {2, 0.2, 0.2}, {5, 0.3, 0.3}});
  profiles[1].emplace_back(std::vector<ProfileEntry>{{9, 0.4, 0.4}, {1, 0.6, 0.6}});
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  const ProfileArena::Path& path = arena.path(0);
  for (size_t r = 0; r < arena.num_refs(); ++r) {
    for (size_t e = path.offsets[r] + 1; e < path.offsets[r + 1]; ++e) {
      EXPECT_LT(path.tuples[e - 1], path.tuples[e]);
    }
  }
  EXPECT_EQ(arena.num_entries(), 5u);
  EXPECT_DOUBLE_EQ(path.mass[0], 0.6);
  EXPECT_DOUBLE_EQ(path.forward_max[1], 0.6);
}

// ---------------------------------------------------------------------------
// Engine-level: fused vs reference kernel on a generated mega-name, and the
// prune's contract against exact matrices.
// ---------------------------------------------------------------------------

void ExpectBitIdentical(const PairMatrix& a, const PairMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << ", " << j << ")";
    }
  }
}

class FusedKernelEngineTest : public ::testing::Test {
 protected:
  FusedKernelEngineTest() {
    GeneratorConfig generator;
    generator.seed = 7;
    generator.num_communities = 12;
    generator.authors_per_community = 15;
    generator.ambiguous = {{"Wei Wang", 4, 60}};
    auto dataset = GenerateDblpDataset(generator);
    DISTINCT_CHECK(dataset.ok());
    dataset_ = std::make_unique<DblpDataset>(*std::move(dataset));

    DistinctConfig config;
    config.supervised = false;
    config.promotions = DblpDefaultPromotions();
    auto engine = Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = std::make_unique<Distinct>(*std::move(engine));

    auto refs = engine_->RefsForName("Wei Wang");
    DISTINCT_CHECK(refs.ok());
    refs_ = *std::move(refs);
    DISTINCT_CHECK(refs_.size() >= 50);
  }

  ProfileStore BuildStore(ThreadPool* pool) const {
    return ProfileStore::Build(engine_->propagation_engine(),
                               engine_->paths(),
                               engine_->config().propagation, refs_, pool,
                               /*min_parallel_refs=*/2);
  }

  std::unique_ptr<DblpDataset> dataset_;
  std::unique_ptr<Distinct> engine_;
  std::vector<int32_t> refs_;
};

TEST_F(FusedKernelEngineTest, FusedMatchesReferenceAcrossThreadCounts) {
  const ProfileStore serial_store = BuildStore(nullptr);
  PairKernelOptions reference;
  reference.kernel = PairKernelType::kReference;
  const auto expected =
      ComputePairMatrices(serial_store, engine_->model(), nullptr, reference);

  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    const ProfileStore store = BuildStore(&pool);
    PairKernelOptions fused;
    fused.kernel = PairKernelType::kFused;
    fused.tile_size = 8;
    fused.min_parallel_refs = 2;
    const auto actual =
        ComputePairMatrices(store, engine_->model(), &pool, fused);
    ExpectBitIdentical(actual.first, expected.first);
    ExpectBitIdentical(actual.second, expected.second);
  }
}

TEST_F(FusedKernelEngineTest, EveryKernelIsaMatchesReferenceBitIdentically) {
  // The full engine-scale differential: each ISA (and auto, whatever it
  // resolves to on this host) must reproduce the reference matrices bit for
  // bit, serial and under a pool — the merge-join variants change only how
  // matches are found, never what is accumulated.
  const ProfileStore serial_store = BuildStore(nullptr);
  PairKernelOptions reference;
  reference.kernel = PairKernelType::kReference;
  const auto expected =
      ComputePairMatrices(serial_store, engine_->model(), nullptr, reference);

  ThreadPool pool(4);
  const ProfileStore parallel_store = BuildStore(&pool);
  for (const KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                              KernelIsa::kGallop, KernelIsa::kAvx2}) {
    for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const ProfileStore& store = workers ? parallel_store : serial_store;
      PairKernelOptions fused;
      fused.kernel = PairKernelType::kFused;
      fused.tile_size = 8;
      fused.min_parallel_refs = 2;
      fused.isa = isa;
      const auto actual =
          ComputePairMatrices(store, engine_->model(), workers, fused);
      SCOPED_TRACE(std::string("isa=") + KernelIsaName(ResolveKernelIsa(isa)) +
                   (workers ? " pooled" : " serial"));
      ExpectBitIdentical(actual.first, expected.first);
      ExpectBitIdentical(actual.second, expected.second);
    }
  }
}

TEST_F(FusedKernelEngineTest, NonCandidatePairsAreExactlyZeroInReference) {
  const ProfileStore store = BuildStore(nullptr);
  const ProfileArena arena = ProfileArena::FromStore(store);
  const CandidateSet candidates =
      CandidateSet::Build(arena, LivePaths(engine_->model()));
  PairKernelOptions reference;
  reference.kernel = PairKernelType::kReference;
  const auto matrices =
      ComputePairMatrices(store, engine_->model(), nullptr, reference);
  for (size_t i = 1; i < refs_.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (candidates.mask(i, j) == 0) {
        EXPECT_EQ(matrices.first.at(i, j), 0.0);
        EXPECT_EQ(matrices.second.at(i, j), 0.0);
      }
    }
  }
}

TEST_F(FusedKernelEngineTest, PruningDropsOnlySubThresholdCells) {
  const ProfileStore store = BuildStore(nullptr);
  const auto exact = ComputePairMatrices(store, engine_->model());

  // Two merge floors: the paper's default (where the uniform-weight bound
  // is loose and may prune nothing) and a floor inside the bound's range
  // on this dataset, where the prune deterministically fires.
  int64_t total_dropped = 0;
  for (const double min_sim : {engine_->config().min_sim, 0.25}) {
    PairKernelOptions pruned_options;
    pruned_options.pruning = true;
    pruned_options.prune_min_sim = min_sim;
    const auto pruned =
        ComputePairMatrices(store, engine_->model(), nullptr, pruned_options);

    for (size_t i = 1; i < refs_.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (pruned.first.at(i, j) == exact.first.at(i, j) &&
            pruned.second.at(i, j) == exact.second.at(i, j)) {
          continue;
        }
        ++total_dropped;
        // A pruned cell reads 0.0, and its true combined similarity is
        // below the merge floor — the clusterer could never have merged
        // on it.
        EXPECT_EQ(pruned.first.at(i, j), 0.0);
        EXPECT_EQ(pruned.second.at(i, j), 0.0);
        const double actual = CombinedSimilarity(
            exact.first.at(i, j), exact.second.at(i, j),
            ClusterMeasure::kComposite, CombineRule::kGeometricMean);
        EXPECT_LT(actual, min_sim) << "cell (" << i << ", " << j << ")";
      }
    }

    // Final clusterings agree: every merge decision happens at or above
    // min_sim, where the matrices are identical.
    AgglomerativeOptions cluster = engine_->cluster_options();
    cluster.min_sim = min_sim;
    const ClusteringResult a =
        ClusterReferences(exact.first, exact.second, cluster);
    const ClusteringResult b =
        ClusterReferences(pruned.first, pruned.second, cluster);
    EXPECT_EQ(a.num_clusters, b.num_clusters);
    EXPECT_EQ(a.assignment, b.assignment);
  }
  // The prune must actually fire somewhere (deterministic dataset, seed 7).
  EXPECT_GT(total_dropped, 0);
}

TEST_F(FusedKernelEngineTest, EngineResolveAgreesAcrossKernelsAndPruning) {
  auto baseline = engine_->ResolveRefs(refs_);
  ASSERT_TRUE(baseline.ok());

  DistinctConfig config = engine_->config();
  config.kernel = PairKernelType::kReference;
  config.kernel_pruning = false;
  auto reference_engine =
      Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(reference_engine.ok());
  auto reference = reference_engine->ResolveRefs(refs_);
  ASSERT_TRUE(reference.ok());

  EXPECT_EQ(baseline->num_clusters, reference->num_clusters);
  EXPECT_EQ(baseline->assignment, reference->assignment);
}

TEST(FusedKernelMiniTest, EmptyAndSingletonStores) {
  Database db = testing_util::MakeMiniDblp();
  DistinctConfig config;
  config.supervised = false;
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  for (const std::vector<int32_t>& refs :
       {std::vector<int32_t>{}, std::vector<int32_t>{0}}) {
    const ProfileStore store = ProfileStore::Build(
        engine->propagation_engine(), engine->paths(),
        engine->config().propagation, refs, /*pool=*/nullptr);
    const ProfileArena arena = ProfileArena::FromStore(store);
    EXPECT_EQ(arena.num_refs(), refs.size());
    const CandidateSet candidates =
        CandidateSet::Build(arena, LivePaths(engine->model()));
    EXPECT_EQ(candidates.count(), 0);
    PairKernelOptions fused;
    fused.kernel = PairKernelType::kFused;
    const auto matrices =
        ComputePairMatrices(store, engine->model(), nullptr, fused);
    EXPECT_EQ(matrices.first.size(), refs.size());
  }
}

// ---------------------------------------------------------------------------
// Per-path overlap masks: both marking machines and the dirty-restricted
// build against brute force, and the masked fill against the reference
// kernel under a model with dead and negative paths.
// ---------------------------------------------------------------------------

/// Whether slices a and b share a tuple (brute force, no sortedness used).
bool SharesTuple(const NeighborProfile& a, const NeighborProfile& b) {
  for (const ProfileEntry& ea : a.entries()) {
    for (const ProfileEntry& eb : b.entries()) {
      if (ea.tuple == eb.tuple) {
        return true;
      }
    }
  }
  return false;
}

/// The mask CandidateSet must hold for (i, j): bit k for live path k
/// overlapping, the overflow bit for any overlapping live path past it.
PathMask BruteForceMask(
    const std::vector<std::vector<NeighborProfile>>& profiles,
    const std::vector<uint32_t>& live, size_t i, size_t j) {
  PathMask mask = 0;
  for (size_t k = 0; k < live.size(); ++k) {
    if (SharesTuple(profiles[i][live[k]], profiles[j][live[k]])) {
      mask |= PathMask{1} << std::min<size_t>(k, CandidateSet::kOverflowBit);
    }
  }
  return mask;
}

/// Profiles with every shape the mask machines must survive: ~15% empty
/// slices, a sparse tuple universe, and on every third path a hub tuple
/// (id 0) held by ~90% of the references, which sends the grouped
/// machine's cost quadratic and the default cost model to the bitset rows.
std::vector<std::vector<NeighborProfile>> MaskProfiles(Rng& rng,
                                                       size_t num_refs,
                                                       size_t num_paths) {
  std::vector<std::vector<NeighborProfile>> profiles(num_refs);
  for (size_t r = 0; r < num_refs; ++r) {
    for (size_t p = 0; p < num_paths; ++p) {
      std::vector<ProfileEntry> entries;
      if (!rng.Bernoulli(0.15)) {
        if (p % 3 == 0 && rng.Bernoulli(0.9)) {
          entries.push_back(
              ProfileEntry{0, rng.UniformDouble(), rng.UniformDouble()});
        }
        for (int32_t t = 1; t < 200; ++t) {
          if (rng.Bernoulli(0.02)) {
            entries.push_back(
                ProfileEntry{t, rng.UniformDouble(), rng.UniformDouble()});
          }
        }
      }
      profiles[r].emplace_back(std::move(entries));
    }
  }
  return profiles;
}

/// Every path live except p % 4 == 1 (dead in both terms); mixed-sign
/// weights elsewhere, including paths with only one term exactly zero.
SimilarityModel DeadAndNegativeModel(size_t num_paths) {
  std::vector<double> resem(num_paths);
  std::vector<double> walk(num_paths);
  for (size_t p = 0; p < num_paths; ++p) {
    switch (p % 4) {
      case 0:
        resem[p] = 0.3 + 0.01 * static_cast<double>(p);
        walk[p] = -0.2;
        break;
      case 1:
        resem[p] = 0.0;
        walk[p] = -0.0;  // a signed zero is dead too
        break;
      case 2:
        resem[p] = -0.4;
        walk[p] = 0.0;
        break;
      default:
        resem[p] = 0.0;
        walk[p] = 0.7;
        break;
    }
  }
  return SimilarityModel(std::move(resem), std::move(walk));
}

/// (seed, paths) over 70 refs, so the bitset rows span two words: 5 paths
/// fit the mask word, 48 (36 of them live) overflow it.
class PathMaskTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {
 protected:
  static constexpr size_t kRefs = 70;
  size_t num_paths() const { return std::get<1>(GetParam()); }
  std::vector<std::vector<NeighborProfile>> Profiles() const {
    Rng rng(std::get<0>(GetParam()));
    return MaskProfiles(rng, kRefs, num_paths());
  }
};

TEST_P(PathMaskTest, LivePathsDropExactlyTheZeroWeightPaths) {
  const std::vector<uint32_t> live =
      LivePaths(DeadAndNegativeModel(num_paths()));
  for (size_t p = 0; p < num_paths(); ++p) {
    EXPECT_EQ(std::count(live.begin(), live.end(), p) == 1, p % 4 != 1)
        << "path " << p;
  }
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
}

TEST_P(PathMaskTest, BothMachinesMatchBruteForcePerPathOverlap) {
  const auto profiles = Profiles();
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  const std::vector<uint32_t> live =
      LivePaths(DeadAndNegativeModel(num_paths()));
  ASSERT_EQ(live.size() > CandidateSet::kOverflowBit + 1, num_paths() > 32);

  CandidateBuildOptions grouped;
  grouped.bitset_min_refs = 1 << 30;  // force the sparse grouped marking
  CandidateBuildOptions bitset;
  bitset.bitset_min_refs = 0;
  bitset.bitset_cost_factor = 0.0;  // force the bitset rows
  const CandidateSet sets[] = {CandidateSet::Build(arena, live, grouped),
                               CandidateSet::Build(arena, live, bitset),
                               CandidateSet::Build(arena, live)};
  int64_t expected_count = 0;
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PathMask expected = BruteForceMask(profiles, live, i, j);
      expected_count += expected != 0 ? 1 : 0;
      for (const CandidateSet& set : sets) {
        EXPECT_EQ(set.mask(i, j), expected)
            << "pair (" << i << ", " << j << ")";
      }
    }
  }
  for (const CandidateSet& set : sets) {
    EXPECT_EQ(set.live_paths(), live);
    EXPECT_EQ(set.count(), expected_count);
  }
  EXPECT_GT(expected_count, 0);
}

TEST_P(PathMaskTest, PartialMasksEqualFullMasksOnDirtyCells) {
  const auto profiles = Profiles();
  const ProfileArena arena = ProfileArena::FromProfiles(profiles);
  const std::vector<uint32_t> live =
      LivePaths(DeadAndNegativeModel(num_paths()));
  const CandidateSet full = CandidateSet::Build(arena, live);
  Rng rng(std::get<0>(GetParam()) + 5);
  std::vector<char> dirty(kRefs, 0);
  for (size_t r = 0; r < kRefs; ++r) {
    dirty[r] = rng.Bernoulli(0.2) ? 1 : 0;
  }
  dirty[kRefs - 1] = 1;  // an appended reference is always dirty
  const CandidateSet partial = CandidateSet::BuildPartial(arena, live, dirty);
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(partial.mask(i, j), (dirty[i] | dirty[j]) ? full.mask(i, j)
                                                          : PathMask{0})
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST_P(PathMaskTest, MaskedFillMatchesReferenceKernelBitIdentically) {
  const ProfileStore store = ProfileStore::FromProfiles(Profiles());
  const SimilarityModel model = DeadAndNegativeModel(num_paths());
  PairKernelOptions reference;
  reference.kernel = PairKernelType::kReference;
  const auto expected = ComputePairMatrices(store, model, nullptr, reference);

  ThreadPool pool(4);
  for (const KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kGallop, KernelIsa::kAvx2}) {
    for (const double cost_factor : {1.0, 0.0}) {
      for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
        PairKernelOptions fused;
        fused.isa = isa;
        fused.tile_size = 8;
        fused.min_parallel_refs = 2;
        fused.candidates.bitset_min_refs = 0;
        fused.candidates.bitset_cost_factor = cost_factor;
        SCOPED_TRACE(std::string(KernelIsaName(ResolveKernelIsa(isa))) +
                     (cost_factor == 0.0 ? " bitset" : " cost-model") +
                     (workers ? " pooled" : " serial"));
        const auto actual = ComputePairMatrices(store, model, workers, fused);
        ExpectBitIdentical(actual.first, expected.first);
        ExpectBitIdentical(actual.second, expected.second);
      }
    }
  }

  // The delta refill recomputes dirty cells from the partial masks: it
  // must land on the reference matrices too.
  Rng rng(std::get<0>(GetParam()) + 9);
  std::vector<char> dirty(kRefs, 0);
  for (size_t r = 0; r < kRefs; ++r) {
    dirty[r] = rng.Bernoulli(0.25) ? 1 : 0;
  }
  const ProfileArena arena = ProfileArena::FromStore(store);
  const PairMatrix zeros(kRefs);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    PairKernelOptions fused;
    fused.tile_size = 8;
    fused.min_parallel_refs = 2;
    // Clean cells are carried over from `expected`; dirty ones refilled
    // from scratch — start them from zeros to prove they are recomputed.
    PairMatrix old_resem = expected.first;
    PairMatrix old_walk = expected.second;
    for (size_t i = 1; i < kRefs; ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (dirty[i] | dirty[j]) {
          old_resem.set(i, j, 7.0);
          old_walk.set(i, j, 7.0);
        }
      }
    }
    const auto updated = UpdatePairMatrices(store, arena, model, dirty,
                                            old_resem, old_walk, workers,
                                            fused);
    ExpectBitIdentical(updated.first, expected.first);
    ExpectBitIdentical(updated.second, expected.second);
  }
}

TEST_P(PathMaskTest, JoinCountersAddUpPerTile) {
  const auto profiles = Profiles();
  const ProfileStore store = ProfileStore::FromProfiles(profiles);
  const SimilarityModel model = DeadAndNegativeModel(num_paths());
  const std::vector<uint32_t> live = LivePaths(model);
  const CandidateSet masks =
      CandidateSet::Build(ProfileArena::FromStore(store), live);
  int64_t expected_joins = 0;
  for (size_t i = 1; i < kRefs; ++i) {
    for (size_t j = 0; j < i; ++j) {
      const PathMask mask = masks.mask(i, j);
      for (size_t k = 0; k < live.size(); ++k) {
        const bool joined =
            k < CandidateSet::kOverflowBit
                ? ((mask >> k) & 1) != 0
                : (mask >> CandidateSet::kOverflowBit) != 0;
        expected_joins += joined ? 1 : 0;
      }
    }
  }
  const int64_t cells = static_cast<int64_t>(kRefs * (kRefs - 1) / 2);

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  ThreadPool pool(3);
  for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
    obs::MetricsRegistry::Global().Reset();
    PairKernelOptions fused;
    fused.tile_size = 8;
    fused.min_parallel_refs = 2;
    ComputePairMatrices(store, model, workers, fused);
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snapshot.CounterValue("sim.candidate_pairs"), masks.count());
    EXPECT_EQ(snapshot.CounterValue("sim.path_joins"), expected_joins);
    EXPECT_EQ(snapshot.CounterValue("sim.path_joins_skipped"),
              cells * static_cast<int64_t>(num_paths()) - expected_joins);
  }
  obs::MetricsRegistry::Global().Reset();
  obs::SetEnabled(was_enabled);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWidths, PathMaskTest,
    ::testing::Combine(::testing::Values(uint64_t{3}, uint64_t{58},
                                         uint64_t{4096}),
                       ::testing::Values(size_t{5}, size_t{48})));

}  // namespace
}  // namespace distinct
