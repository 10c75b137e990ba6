// Memory accounting without a subtree memo: production propagation keeps
// none, so the memo's byte gauge stays at zero through every production
// path, and serve admission prices a query by its own matrices (and the
// fill's path masks) alone.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/delta.h"
#include "core/distinct.h"
#include "core/scan.h"
#include "core/scan_shard.h"
#include "dblp/generator.h"
#include "common/thread_pool.h"
#include "dblp/schema.h"
#include "obs/memory.h"
#include "serve/service.h"
#include "sim/fused_kernel.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace distinct {
namespace {

using obs::MemoryTracker;

DistinctConfig EngineConfig() {
  DistinctConfig config;
  config.promotions = DblpDefaultPromotions();
  config.num_threads = 2;
  return config;
}

/// The default generated world (what `distinct_cli generate --seed=42`
/// writes), one sequential client asking every distinct name under a
/// 16 MiB budget. Every name's own matrix estimate fits the budget and
/// nothing else stands against it, so every query must be answered.
TEST(ServeAdmissionTest, SequentialClientOnSeed42FitsA16MiBBudget) {
  GeneratorConfig generator;
  generator.seed = 42;
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());
  auto engine =
      Distinct::Create(dataset->db, DblpReferenceSpec(), EngineConfig());
  ASSERT_TRUE(engine.ok());

  serve::ServiceOptions options;
  options.memory_budget_mb = 16;
  serve::ServeService service(*engine, options);
  const auto no_deadline = std::chrono::steady_clock::time_point::max();
  int64_t asked = 0;
  for (const auto& [name, refs] : engine->name_groups()) {
    if (refs.empty()) {
      continue;
    }
    ASSERT_LE(EstimatedGroupMatrixBytes(static_cast<int64_t>(refs.size())),
              options.memory_budget_mb << 20)
        << name;
    ++asked;
    auto answer = service.ResolveNameAt(name, no_deadline);
    EXPECT_TRUE(answer.ok()) << name << ": " << answer.status().ToString();
  }
  ASSERT_GT(asked, 1000);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_memory, 0);
  EXPECT_EQ(stats.answered, asked);
  EXPECT_EQ(MemoryTracker::Global().PeakBytes(MemoryTracker::kSubtreeCache),
            0);
}

/// Sharded scan, serve queries and a delta append never register a byte
/// of subtree memo.
TEST(SubtreeMemoGaugeTest, StaysZeroThroughScanServeAndDelta) {
  GeneratorConfig generator;
  generator.seed = 11;
  generator.num_communities = 8;
  generator.authors_per_community = 10;
  generator.ambiguous = {{"Wei Wang", 3, 40}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());
  auto split = MakeTailDelta(dataset->db, kPublishTable, 40);
  ASSERT_TRUE(split.ok());
  Database db = std::move(split->first);
  DistinctConfig config = EngineConfig();
  config.supervised = false;  // too few rare names here to train on
  auto engine = Distinct::Create(db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());

  const MemoryTracker& tracker = MemoryTracker::Global();
  const auto expect_zero = [&tracker](const std::string& after) {
    EXPECT_EQ(tracker.CurrentBytes(MemoryTracker::kSubtreeCache), 0)
        << after;
    EXPECT_EQ(tracker.PeakBytes(MemoryTracker::kSubtreeCache), 0) << after;
  };

  auto groups = ScanNameGroups(*engine);
  ASSERT_TRUE(groups.ok());
  ShardedScanOptions scan;
  scan.num_shards = 2;
  scan.num_threads = 2;
  auto scanned = RunShardedScan(*engine, *groups, scan);
  ASSERT_TRUE(scanned.ok());
  expect_zero("sharded scan");

  {
    serve::ServeService service(*engine, serve::ServiceOptions{});
    const auto no_deadline = std::chrono::steady_clock::time_point::max();
    for (size_t g = 0; g < groups->size() && g < 20; ++g) {
      ASSERT_TRUE(
          service.ResolveNameAt((*groups)[g].name, no_deadline).ok());
    }
  }
  expect_zero("serve queries");

  auto report = engine->ApplyDelta(db, split->second);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->cache_entries_erased, 0);
  auto rescanned = RunShardedScan(*engine, *groups, scan);
  ASSERT_TRUE(rescanned.ok());
  expect_zero("delta and rescan");
}

/// One group's pair fill — the fused kernel's per-path masks and both pair
/// matrices — never holds more bytes than EstimatedGroupMatrixBytes, the
/// figure shard and serve admission price the group at, so
/// --scan-memory-mb keeps bounding what a fill holds. Peaks are summed per
/// component, which can only overstate the joint peak.
TEST(GroupMatrixEstimateTest, CoversTheTrackedPeakOfOneFill) {
  GeneratorConfig generator;
  generator.seed = 5;
  generator.num_communities = 8;
  generator.authors_per_community = 10;
  generator.ambiguous = {{"Wei Wang", 4, 150}};
  auto dataset = GenerateDblpDataset(generator);
  ASSERT_TRUE(dataset.ok());
  DistinctConfig config = EngineConfig();
  config.supervised = false;
  auto engine = Distinct::Create(dataset->db, DblpReferenceSpec(), config);
  ASSERT_TRUE(engine.ok());
  auto refs = engine->RefsForName("Wei Wang");
  ASSERT_TRUE(refs.ok());
  const auto n = static_cast<int64_t>(refs->size());
  ASSERT_GE(n, 100);

  ThreadPool pool(2);
  const ProfileStore store = ProfileStore::Build(
      engine->propagation_engine(), engine->paths(),
      engine->config().propagation, *refs, &pool);
  const ProfileArena arena = ProfileArena::FromStore(store);

  MemoryTracker& tracker = MemoryTracker::Global();
  const int64_t arena_bytes =
      tracker.CurrentBytes(MemoryTracker::kProfileArena);
  tracker.Reset();  // zero the peaks: those below are this fill's
  tracker.Add(MemoryTracker::kProfileArena, arena_bytes);  // still alive
  {
    PairKernelOptions kernel = engine->kernel_options(true);
    kernel.min_parallel_refs = 2;
    kernel.tile_size = 16;
    const auto matrices =
        ComputePairMatrices(store, arena, engine->model(), &pool, kernel);
    ASSERT_EQ(matrices.first.size(), refs->size());
  }
  const int64_t matrix_peak = tracker.PeakBytes(MemoryTracker::kPairMatrix);
  const int64_t mask_peak = tracker.PeakBytes(MemoryTracker::kCandidateMask);
  EXPECT_EQ(mask_peak, CandidateSet::MaskBytes(n));
  EXPECT_GE(matrix_peak, n * (n - 1) * static_cast<int64_t>(sizeof(double)));
  EXPECT_LE(matrix_peak + mask_peak, EstimatedGroupMatrixBytes(n));
  // Both gauges drain once the fill's results are gone.
  EXPECT_EQ(tracker.CurrentBytes(MemoryTracker::kPairMatrix), 0);
  EXPECT_EQ(tracker.CurrentBytes(MemoryTracker::kCandidateMask), 0);
}

}  // namespace
}  // namespace distinct
