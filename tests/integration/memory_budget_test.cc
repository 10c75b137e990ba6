// Memory accounting without a subtree memo: production propagation keeps
// none, so the memo's byte gauge stays at zero through every production
// path, and serve admission prices a query by its own matrices alone.

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
#include "dblp/schema.h"
#include "obs/memory.h"
#include "serve/service.h"

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

}  // namespace
}  // namespace distinct
