#include "core/scan_shard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "dblp/generator.h"
#include "dblp/schema.h"
#include "obs/metrics.h"

namespace distinct {
namespace {

namespace fs = std::filesystem;

NameGroup MakeGroup(const std::string& name, size_t num_refs) {
  NameGroup group;
  group.name = name;
  for (size_t r = 0; r < num_refs; ++r) {
    group.refs.push_back(static_cast<int32_t>(r));
  }
  return group;
}

TEST(PlanShardsTest, BalancesByEstimatedPairsNotGroupCount) {
  // Sizes 10, 8, 5, 3, 2, 2 -> pairs 45, 28, 10, 3, 1, 1. LPT onto two
  // shards: the 45-pair group takes shard 0 and every later group lands on
  // shard 1, which stays lighter throughout (28+10+3+1+1 = 43 < 45). A
  // count-balanced planner would have split 3/3 instead.
  std::vector<NameGroup> groups = {
      MakeGroup("a", 10), MakeGroup("b", 8), MakeGroup("c", 5),
      MakeGroup("d", 3),  MakeGroup("e", 2), MakeGroup("f", 2),
  };
  const ShardPlan plan = PlanShards(groups, 2);
  ASSERT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.shards[0], (std::vector<size_t>{0}));
  EXPECT_EQ(plan.shards[1], (std::vector<size_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(plan.estimated_pairs[0], 45);
  EXPECT_EQ(plan.estimated_pairs[1], 43);
}

TEST(PlanShardsTest, DeterministicAndCoversEveryGroupOnce) {
  std::vector<NameGroup> groups;
  for (size_t g = 0; g < 37; ++g) {
    groups.push_back(MakeGroup("n" + std::to_string(g), 2 + (g * 7) % 23));
  }
  for (const int num_shards : {1, 2, 7, 50}) {
    const ShardPlan plan = PlanShards(groups, num_shards);
    ASSERT_EQ(plan.num_shards(), num_shards);
    std::set<size_t> seen;
    for (const auto& shard : plan.shards) {
      for (size_t i = 1; i < shard.size(); ++i) {
        EXPECT_LT(shard[i - 1], shard[i]);  // ascending within a shard
      }
      for (const size_t g : shard) {
        EXPECT_TRUE(seen.insert(g).second) << "group planned twice";
      }
    }
    EXPECT_EQ(seen.size(), groups.size());
    // Pure function: replanning yields the identical plan (what resume
    // depends on).
    const ShardPlan again = PlanShards(groups, num_shards);
    EXPECT_EQ(again.shards, plan.shards);
    EXPECT_EQ(again.estimated_pairs, plan.estimated_pairs);
  }
}

TEST(PlanShardsTest, ZeroOrNegativeShardCountClampsToOne) {
  std::vector<NameGroup> groups = {MakeGroup("a", 3)};
  EXPECT_EQ(PlanShards(groups, 0).num_shards(), 1);
  EXPECT_EQ(PlanShards(groups, -4).num_shards(), 1);
}

/// Engine + filtered groups over a generated DBLP world with one planted
/// ambiguous name; built once for the whole suite (training is disabled, so
/// construction is propagation-only, but still worth sharing).
class ShardedScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig generator;
    generator.seed = 11;
    generator.num_communities = 8;
    generator.authors_per_community = 10;
    generator.ambiguous = {{"Wei Wang", 3, 40}, {"Jing Li", 2, 12}};
    auto dataset = GenerateDblpDataset(generator);
    DISTINCT_CHECK(dataset.ok());
    dataset_ = new DblpDataset(*std::move(dataset));

    DistinctConfig config;
    config.supervised = false;
    config.promotions = DblpDefaultPromotions();
    config.min_sim = 1e-3;
    auto engine = Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    DISTINCT_CHECK(engine.ok());
    engine_ = new Distinct(*std::move(engine));

    ScanOptions options;
    options.min_refs = 2;
    auto groups = ScanNameGroups(*engine_, options);
    DISTINCT_CHECK(groups.ok());
    DISTINCT_CHECK(groups->size() > 4);
    groups_ = new std::vector<NameGroup>(*std::move(groups));

    // The reference: every group through Distinct::ResolveRefs, on a
    // second engine that is gone before any test runs — its warm memo
    // would otherwise count against the budgeted scans' admission.
    baseline_ = new std::vector<BulkResolution>();
    auto reference =
        Distinct::Create(dataset_->db, DblpReferenceSpec(), config);
    DISTINCT_CHECK(reference.ok());
    for (const NameGroup& group : *groups_) {
      auto clustering = reference->ResolveRefs(group.refs);
      DISTINCT_CHECK(clustering.ok());
      baseline_->push_back(BulkResolution{group.name, group.refs.size(),
                                          *std::move(clustering)});
    }
  }

  static void TearDownTestSuite() {
    delete baseline_;
    delete groups_;
    delete engine_;
    delete dataset_;
    baseline_ = nullptr;
    groups_ = nullptr;
    engine_ = nullptr;
    dataset_ = nullptr;
  }

  static std::string MakeCheckpointDir(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  /// Asserts `results` is byte-for-byte the per-group baseline: same
  /// order, names, sizes, assignments, and bit-identical merge
  /// similarities.
  static void ExpectMatchesBaseline(
      const std::vector<BulkResolution>& results) {
    ASSERT_EQ(results.size(), baseline_->size());
    for (size_t g = 0; g < results.size(); ++g) {
      const BulkResolution& want = (*baseline_)[g];
      const BulkResolution& got = results[g];
      ASSERT_EQ(got.name, want.name) << "group order differs at " << g;
      EXPECT_EQ(got.num_refs, want.num_refs);
      EXPECT_EQ(got.clustering.assignment, want.clustering.assignment)
          << got.name;
      EXPECT_EQ(got.clustering.num_clusters, want.clustering.num_clusters);
      ASSERT_EQ(got.clustering.merges.size(), want.clustering.merges.size())
          << got.name;
      for (size_t m = 0; m < want.clustering.merges.size(); ++m) {
        EXPECT_EQ(got.clustering.merges[m].into,
                  want.clustering.merges[m].into);
        EXPECT_EQ(got.clustering.merges[m].from,
                  want.clustering.merges[m].from);
        EXPECT_EQ(got.clustering.merges[m].similarity,
                  want.clustering.merges[m].similarity)
            << got.name << " merge " << m;
      }
    }
  }

  static DblpDataset* dataset_;
  static Distinct* engine_;
  static std::vector<NameGroup>* groups_;
  static std::vector<BulkResolution>* baseline_;
};

DblpDataset* ShardedScanTest::dataset_ = nullptr;
Distinct* ShardedScanTest::engine_ = nullptr;
std::vector<NameGroup>* ShardedScanTest::groups_ = nullptr;
std::vector<BulkResolution>* ShardedScanTest::baseline_ = nullptr;

// The acceptance bar: sharded output is byte-identical to per-group
// Distinct::ResolveRefs at shard counts 1, 2, 4, 7 and 8, and under a
// 64 MiB per-shard budget.
TEST_F(ShardedScanTest, ByteIdenticalAtEveryShardCount) {
  struct Run {
    int shards;
    int64_t budget_mb;
  };
  for (const Run run : {Run{1, 0}, Run{2, 0}, Run{4, 0}, Run{7, 0},
                        Run{8, 0}, Run{4, 64}}) {
    ShardedScanOptions options;
    options.num_shards = run.shards;
    options.memory_budget_mb = run.budget_mb;
    options.num_threads = 2;
    auto result = RunShardedScan(*engine_, *groups_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->shards.size(),
              static_cast<size_t>(options.num_shards));
    for (const ShardOutcome& shard : result->shards) {
      EXPECT_EQ(shard.state, ShardState::kCompleted) << shard.error;
      EXPECT_TRUE(shard.error.empty());
    }
    ExpectMatchesBaseline(result->results);
    EXPECT_EQ(result->stats.names_resolved,
              static_cast<int64_t>(groups_->size()));
  }
}

TEST_F(ShardedScanTest, MemoryBudgetCapsThreadsWithoutChangingResults) {
  ShardedScanOptions options;
  options.num_shards = 3;
  options.num_threads = 8;
  options.memory_budget_mb = 1;  // enough for the data, not for 8 workers
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const ShardOutcome& shard : result->shards) {
    ASSERT_EQ(shard.state, ShardState::kCompleted) << shard.error;
    EXPECT_GE(shard.threads_used, 1);
    EXPECT_LE(shard.threads_used, 8);
  }
  ExpectMatchesBaseline(result->results);
}

// Graceful degradation: a group with an out-of-range reference fails its
// shard; the other shards complete and the merged results simply omit the
// failed shard's groups.
TEST_F(ShardedScanTest, BadGroupFailsItsShardOnly) {
  std::vector<NameGroup> groups = *groups_;
  NameGroup bogus;
  bogus.name = "Bogus Ref";
  bogus.refs = {0, 1 << 30};
  groups.push_back(std::move(bogus));

  ShardedScanOptions options;
  options.num_shards = 4;
  obs::ProgressState progress;
  options.progress = &progress;
  auto result = RunShardedScan(*engine_, groups, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The failed shard's groups stay un-done, even those that resolved.
  EXPECT_EQ(progress.groups_done.load(),
            static_cast<int64_t>(result->results.size()));

  int failed = 0;
  for (const ShardOutcome& shard : result->shards) {
    if (shard.state == ShardState::kFailed) {
      ++failed;
      EXPECT_NE(shard.error.find("Bogus Ref"), std::string::npos)
          << shard.error;
    }
  }
  EXPECT_EQ(failed, 1);
  // Every resolved group is genuine and none comes from the failed shard.
  EXPECT_LT(result->results.size(), groups.size());
  for (const BulkResolution& resolution : result->results) {
    EXPECT_NE(resolution.name, "Bogus Ref");
  }
}

TEST_F(ShardedScanTest, ResumeRequiresCheckpointDir) {
  ShardedScanOptions options;
  options.resume = true;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The resume acceptance bar: kill mid-shard (one shard's checkpoint torn,
// marker gone), resume, and the completed run is byte-identical while the
// surviving shards were loaded, not recomputed.
TEST_F(ShardedScanTest, ResumeAfterMidShardKillIsByteIdentical) {
  const std::string dir = MakeCheckpointDir("shard_resume");
  ShardedScanOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  options.checkpoint_dir = dir;

  auto first = RunShardedScan(*engine_, *groups_, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ExpectMatchesBaseline(first->results);
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(ShardCheckpointComplete(dir, s));
  }

  // Simulate a kill while shard 1 was being written: torn data file, no
  // marker.
  ASSERT_TRUE(fs::remove(ShardMarkerPath(dir, 1)));
  {
    std::ifstream in(ShardCheckpointPath(dir, 1), std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(ShardCheckpointPath(dir, 1),
                      std::ios::binary | std::ios::trunc);
    out << data.substr(0, data.size() / 3);
  }

  obs::SetEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  options.resume = true;
  auto resumed = RunShardedScan(*engine_, *groups_, options);
  const auto metrics = obs::MetricsRegistry::Global().Snapshot();
  obs::SetEnabled(false);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectMatchesBaseline(resumed->results);
  int resumed_count = 0;
  int completed_count = 0;
  for (const ShardOutcome& shard : resumed->shards) {
    if (shard.state == ShardState::kResumed) ++resumed_count;
    if (shard.state == ShardState::kCompleted) ++completed_count;
  }
  EXPECT_EQ(resumed_count, 2);   // shards 0 and 2 loaded from disk
  EXPECT_EQ(completed_count, 1);  // shard 1 re-resolved
  EXPECT_EQ(metrics.CounterValue("scan.shards_resumed"), 2);
  EXPECT_EQ(metrics.CounterValue("scan.shards_completed"), 1);
  // The re-run rewrote shard 1's checkpoint, marker included.
  EXPECT_TRUE(ShardCheckpointComplete(dir, 1));
}

// A checkpoint that is complete but corrupt must fail the resume with a
// clean error, never silently recompute.
TEST_F(ShardedScanTest, ResumeWithCorruptCompleteCheckpointFails) {
  const std::string dir = MakeCheckpointDir("shard_corrupt");
  ShardedScanOptions options;
  options.num_shards = 2;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(RunShardedScan(*engine_, *groups_, options).ok());

  std::ofstream(ShardCheckpointPath(dir, 0),
                std::ios::binary | std::ios::trunc)
      << "{ garbage";
  options.resume = true;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

// Resuming under a different shard count must be rejected: the checkpoints
// bind to the plan that wrote them.
TEST_F(ShardedScanTest, ResumeWithDifferentPlanFails) {
  const std::string dir = MakeCheckpointDir("shard_replan");
  ShardedScanOptions options;
  options.num_shards = 3;
  options.checkpoint_dir = dir;
  ASSERT_TRUE(RunShardedScan(*engine_, *groups_, options).ok());

  options.num_shards = 2;
  options.resume = true;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ShardedScanTest, InvalidShardCountIsRejected) {
  ShardedScanOptions options;
  options.num_shards = 0;
  auto result = RunShardedScan(*engine_, *groups_, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace distinct
