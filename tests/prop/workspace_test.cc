// The dense workspace engine must agree with the depth-first and level-wise
// references on every path, tuple, and option combination — and its
// memo-less production path must be bit-identical to the test-oracle
// subtree memo at every capacity, hit/miss pattern, and thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/distinct.h"
#include "dblp/generator.h"
#include "prop/propagation.h"
#include "prop/workspace.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

void ExpectProfilesNear(const NeighborProfile& a, const NeighborProfile& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a.entries()[e].tuple, b.entries()[e].tuple) << context;
    EXPECT_NEAR(a.entries()[e].forward, b.entries()[e].forward, 1e-12)
        << context;
    EXPECT_NEAR(a.entries()[e].reverse, b.entries()[e].reverse, 1e-12)
        << context;
  }
}

/// Exact comparison: tuples, bit-for-bit probabilities, truncation flag.
void ExpectProfilesIdentical(const NeighborProfile& a,
                             const NeighborProfile& b,
                             const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  EXPECT_EQ(a.truncated(), b.truncated()) << context;
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a.entries()[e].tuple, b.entries()[e].tuple) << context;
    EXPECT_EQ(a.entries()[e].forward, b.entries()[e].forward) << context;
    EXPECT_EQ(a.entries()[e].reverse, b.entries()[e].reverse) << context;
  }
}

struct World {
  Database db;
  std::unique_ptr<SchemaGraph> schema;
  std::unique_ptr<LinkGraph> link;
  std::vector<JoinPath> paths;
  std::vector<int32_t> refs;
};

World MakeWorld(Database db, std::vector<int32_t> refs) {
  World world;
  world.db = std::move(db);
  auto schema = SchemaGraph::Build(world.db);
  DISTINCT_CHECK(schema.ok());
  for (const auto& [table, column] : DblpDefaultPromotions()) {
    DISTINCT_CHECK(schema->PromoteAttribute(table, column).ok());
  }
  world.schema = std::make_unique<SchemaGraph>(*std::move(schema));
  auto link = LinkGraph::Build(*world.schema);
  DISTINCT_CHECK(link.ok());
  world.link = std::make_unique<LinkGraph>(*std::move(link));
  PathEnumerationOptions enumeration;
  enumeration.max_length = 4;
  world.paths = EnumerateJoinPaths(
      *world.schema, *world.db.TableId(kPublishTable), enumeration);
  DISTINCT_CHECK(!world.paths.empty());
  world.refs = std::move(refs);
  return world;
}

World MakeMiniWorld() {
  Database db = testing_util::MakeMiniDblp();
  const Table& publish = **db.FindTable(kPublishTable);
  std::vector<int32_t> refs;
  for (int32_t ref = 0; ref < publish.num_rows(); ++ref) {
    refs.push_back(ref);
  }
  return MakeWorld(std::move(db), std::move(refs));
}

World MakeGeneratedWorld() {
  GeneratorConfig config;
  config.seed = 23;
  config.num_communities = 6;
  config.authors_per_community = 10;
  config.papers_per_community_year = 4.0;
  config.ambiguous = {{"Wei Wang", 3, 18}};
  auto dataset = GenerateDblpDataset(config);
  DISTINCT_CHECK(dataset.ok());
  std::vector<int32_t> refs = dataset->cases[0].publish_rows;
  return MakeWorld(std::move(dataset->db), std::move(refs));
}

/// Exclusion on/off × cache capacity {0, small, unbounded}.
class WorkspaceEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<bool, size_t>> {};

TEST_P(WorkspaceEquivalenceTest, AgreesWithBothReferenceEngines) {
  const auto [exclude, cache_bytes] = GetParam();
  for (const World& world : {MakeMiniWorld(), MakeGeneratedWorld()}) {
    PropagationEngine engine(*world.link);

    PropagationOptions dfs;
    dfs.algorithm = PropagationAlgorithm::kDepthFirst;
    dfs.exclude_start_tuple = exclude;
    PropagationOptions level = dfs;
    level.algorithm = PropagationAlgorithm::kLevelWise;
    PropagationOptions dense = dfs;
    dense.algorithm = PropagationAlgorithm::kWorkspace;
    dense.cache_bytes = cache_bytes;

    PropagationWorkspace workspace(*world.link);
    SubtreeCache cache(cache_bytes);
    for (const int32_t ref : world.refs) {
      for (size_t p = 0; p < world.paths.size(); ++p) {
        const JoinPath& path = world.paths[p];
        const std::string context =
            path.Describe(*world.schema) + " ref " + std::to_string(ref);
        const NeighborProfile expected = engine.Compute(path, ref, dfs);
        ExpectProfilesNear(expected, engine.Compute(path, ref, level),
                           context + " (level-wise)");
        ExpectProfilesNear(
            expected,
            engine.Compute(path, ref, dense, workspace, &cache,
                           static_cast<int>(p)),
            context + " (workspace)");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExclusionAndCacheSize, WorkspaceEquivalenceTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(size_t{0}, size_t{4096},
                                         size_t{64} << 20)));

TEST(WorkspaceDeterminismTest, BitIdenticalAcrossCacheSizesAndThreads) {
  const World world = MakeGeneratedWorld();
  PropagationEngine engine(*world.link);
  PropagationOptions options;  // default algorithm: kWorkspace

  // Reference run: serial, no memo — the production path.
  const ProfileStore reference = ProfileStore::Build(
      engine, world.paths, options, world.refs);

  for (const size_t cache_bytes :
       {size_t{0}, size_t{4096}, size_t{64} << 20}) {
    for (const int threads : {1, 2, 8}) {
      SubtreeCache memo(cache_bytes);
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
      }
      const ProfileStore store = ProfileStore::Build(
          engine, world.paths, options, world.refs, pool.get(),
          /*min_parallel_refs=*/1, &memo);
      ASSERT_EQ(store.num_refs(), reference.num_refs());
      for (size_t i = 0; i < store.num_refs(); ++i) {
        for (size_t p = 0; p < world.paths.size(); ++p) {
          ExpectProfilesIdentical(
              reference.profiles(i)[p], store.profiles(i)[p],
              "cache=" + std::to_string(cache_bytes) + " threads=" +
                  std::to_string(threads) + " ref " + std::to_string(i) +
                  " path " + std::to_string(p));
        }
      }
    }
  }
}

TEST(WorkspaceBudgetTest, FallbackMatchesDepthFirstTruncation) {
  const World world = MakeMiniWorld();
  PropagationEngine engine(*world.link);

  PropagationOptions dfs;
  dfs.algorithm = PropagationAlgorithm::kDepthFirst;
  dfs.max_instances = 1;
  PropagationOptions dense = dfs;
  dense.algorithm = PropagationAlgorithm::kWorkspace;

  bool saw_truncation = false;
  for (const int32_t ref : world.refs) {
    for (const JoinPath& path : world.paths) {
      const NeighborProfile expected = engine.Compute(path, ref, dfs);
      saw_truncation = saw_truncation || expected.truncated();
      ExpectProfilesIdentical(
          expected, engine.Compute(path, ref, dense),
          path.Describe(*world.schema) + " ref " + std::to_string(ref));
    }
  }
  EXPECT_TRUE(saw_truncation);  // the budget must actually bite somewhere
}

TEST(SubtreeCacheTest, FindInsertEvictAndStats) {
  SubtreeCache cache(1 << 20);
  EXPECT_EQ(cache.Find(0, 7), nullptr);

  SubtreeDistribution dist;
  dist.entries = {SubtreeEntry{3, 0.5, 0.25}};
  dist.instances = 1.0;
  auto resident = cache.Insert(0, 7, dist);
  ASSERT_NE(resident, nullptr);

  auto hit = cache.Find(0, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), resident.get());
  ASSERT_EQ(hit->entries.size(), 1u);
  EXPECT_EQ(hit->entries[0].tuple, 3);
  EXPECT_EQ(cache.Find(1, 7), nullptr);  // other path id: distinct key

  const SubtreeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(SubtreeCacheTest, ZeroCapacityNeverStoresButStillReturnsValues) {
  SubtreeCache cache(0);
  SubtreeDistribution dist;
  dist.entries = {SubtreeEntry{1, 1.0, 1.0}};
  auto resident = cache.Insert(0, 1, dist);
  ASSERT_NE(resident, nullptr);  // callers can still merge from the return
  EXPECT_EQ(cache.Find(0, 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(SubtreeCacheTest, TinyCapacityEvictsToFit) {
  // Room for roughly one entry per shard; inserting many keys must evict
  // rather than grow without bound.
  SubtreeCache cache(16 * 128);
  SubtreeDistribution dist;
  dist.entries.assign(4, SubtreeEntry{0, 1.0, 1.0});
  for (int32_t t = 0; t < 64; ++t) {
    cache.Insert(0, t, dist);
  }
  const SubtreeCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(static_cast<size_t>(stats.bytes), size_t{16} * 128);
}

TEST(SubtreeCacheTest, SharedCacheHitsAcrossBuilds) {
  const World world = MakeGeneratedWorld();
  PropagationEngine engine(*world.link);
  PropagationOptions options;  // kWorkspace

  SubtreeCache cache(64 << 20);
  (void)ProfileStore::Build(engine, world.paths, options, world.refs,
                            nullptr, ProfileStore::kMinParallelRefs, &cache);
  const int64_t misses_first = cache.stats().misses;
  EXPECT_GT(misses_first, 0);

  // Second build over the same refs: every subtree is already memoized.
  (void)ProfileStore::Build(engine, world.paths, options, world.refs,
                            nullptr, ProfileStore::kMinParallelRefs, &cache);
  const SubtreeCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0);
  EXPECT_EQ(stats.misses, misses_first);
}

TEST(SubtreeJunctionLevelTest, PicksDeepestOriginLevelUnderExclusion) {
  JoinPath path;
  path.start_node = 0;
  path.steps.resize(4);
  // Publish -> Publications -> Publish -> Authors -> Publish-like shape.
  const std::vector<int> node_at = {0, 1, 0, 2, 0};
  EXPECT_EQ(SubtreeJunctionLevel(path, node_at, true), 4u);
  EXPECT_EQ(SubtreeJunctionLevel(path, node_at, false), 1u);

  // Origin node reappears only mid-path: the suffix below it is shareable.
  const std::vector<int> mid = {0, 1, 0, 2, 3};
  EXPECT_EQ(SubtreeJunctionLevel(path, mid, true), 2u);

  // Origin never reappears: everything past level 1 is shareable.
  const std::vector<int> none = {0, 1, 2, 3, 4};
  EXPECT_EQ(SubtreeJunctionLevel(path, none, true), 1u);
  EXPECT_EQ(SubtreeJunctionLevel(path, none, false), 1u);
}

/// End to end: the production engine (no memo) clusters exactly like the
/// unit's steps run over a 64 MiB oracle memo, serial and parallel.
TEST(WorkspaceEndToEndTest, ClusteringIdenticalCacheOnOffAcrossThreads) {
  GeneratorConfig generator;
  generator.seed = 29;
  generator.num_communities = 8;
  generator.authors_per_community = 12;
  generator.ambiguous = {{"Wei Wang", 4, 24}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());

  std::vector<int> reference_assignment;
  for (const int threads : {1, 8}) {
    DistinctConfig config;
    config.supervised = false;
    config.promotions = DblpDefaultPromotions();
    config.num_threads = threads;
    auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
    ASSERT_TRUE(engine.ok());
    auto result = engine->ResolveName("Wei Wang");
    ASSERT_TRUE(result.ok());
    if (reference_assignment.empty()) {
      reference_assignment = result->clustering.assignment;
      ASSERT_FALSE(reference_assignment.empty());
    } else {
      EXPECT_EQ(result->clustering.assignment, reference_assignment)
          << "threads=" << threads;
    }

    auto refs = engine->RefsForName("Wei Wang");
    ASSERT_TRUE(refs.ok());
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
    }
    SubtreeCache memo(size_t{64} << 20);
    const ProfileStore store = ProfileStore::Build(
        engine->propagation_engine(), engine->paths(),
        engine->config().propagation, *refs, pool.get(),
        ProfileStore::kMinParallelRefs, &memo);
    EXPECT_GT(memo.stats().entries, 0);
    const ProfileArena arena = ProfileArena::FromStore(store);
    const auto matrices = ComputePairMatrices(
        store, arena, engine->model(), pool.get(),
        engine->kernel_options(/*for_clustering=*/true));
    EXPECT_EQ(ClusterReferences(matrices.first, matrices.second,
                                engine->cluster_options())
                  .assignment,
              reference_assignment)
        << "memo on, threads=" << threads;
  }
}

}  // namespace
}  // namespace distinct
