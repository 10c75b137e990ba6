// Sharded bulk-scan overhead: the full filtered-scan workload resolved by
// RunShardedScan at one shard (the baseline every unsharded scan runs),
// then at several shard counts and under a per-shard memory budget,
// verifying every run byte for byte against per-group
// Distinct::ResolveRefs. Shards run sequentially, so sharding buys
// memory-boundedness and checkpointability, not speed — the harness
// measures what that costs.

#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/text_table.h"
#include "core/scan.h"
#include "core/scan_shard.h"
#include "dblp/schema.h"

namespace {

using namespace distinct;

bool ResolutionsEqual(const std::vector<BulkResolution>& a,
                      const std::vector<BulkResolution>& b) {
  if (a.size() != b.size()) return false;
  for (size_t g = 0; g < a.size(); ++g) {
    if (a[g].name != b[g].name || a[g].num_refs != b[g].num_refs ||
        a[g].clustering.assignment != b[g].clustering.assignment ||
        a[g].clustering.merges.size() != b[g].clustering.merges.size()) {
      return false;
    }
    for (size_t m = 0; m < a[g].clustering.merges.size(); ++m) {
      if (a[g].clustering.merges[m].into != b[g].clustering.merges[m].into ||
          a[g].clustering.merges[m].from != b[g].clustering.merges[m].from ||
          a[g].clustering.merges[m].similarity !=
              b[g].clustering.merges[m].similarity) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distinct;
  using namespace distinct::bench;

  FlagParser flags;
  flags.AddInt64("seed", static_cast<int64_t>(kDefaultSeed),
                 "generator seed");
  flags.AddInt64("threads", 4, "worker threads per shard");
  flags.AddInt64("min-refs", 4, "scan filter: minimum references per name");
  flags.AddInt64("budget-mb", 64, "memory budget for the budgeted run");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 1;
  }

  PrintBanner("bench_sharded_scan",
              "sharded scan overhead (implementation, not a paper figure)");

  GeneratorConfig generator = StandardGeneratorConfig(
      static_cast<uint64_t>(flags.GetInt64("seed")));
  DblpDataset dataset = MustGenerate(generator);

  // Unsupervised: path-weight training is not what is being measured.
  DistinctConfig config;
  config.supervised = false;
  config.promotions = DblpDefaultPromotions();
  Distinct engine = MustCreate(dataset.db, config);

  ScanOptions scan;
  scan.min_refs = flags.GetInt64("min-refs");
  auto groups = ScanNameGroups(engine, scan);
  if (!groups.ok()) {
    std::fprintf(stderr, "%s\n", groups.status().ToString().c_str());
    return 1;
  }
  const int threads = MustIntInRange(flags, "threads", 1, 4096);
  std::printf("%zu name groups, %d threads/shard, %u hardware threads\n\n",
              groups->size(), threads,
              std::thread::hardware_concurrency());

  // Exactness reference: every group resolved on its own (untimed).
  std::vector<BulkResolution> reference;
  int64_t total_refs = 0;
  for (const NameGroup& group : *groups) {
    auto clustering = engine.ResolveRefs(group.refs);
    if (!clustering.ok()) {
      std::fprintf(stderr, "%s\n", clustering.status().ToString().c_str());
      return 1;
    }
    reference.push_back(BulkResolution{group.name, group.refs.size(),
                                       *std::move(clustering)});
    total_refs += static_cast<int64_t>(group.refs.size());
  }

  TextTable table({"configuration", "shards", "time (s)", "overhead",
                   "exact"});
  for (size_t c = 1; c <= 4; ++c) table.SetRightAlign(c);

  BenchJson json("sharded_scan");
  json.Add("seed", flags.GetInt64("seed"));
  json.Add("groups", static_cast<int64_t>(groups->size()));
  json.Add("refs", total_refs);
  json.Add("threads", static_cast<int64_t>(threads));

  const int64_t budget_mb = flags.GetInt64("budget-mb");
  struct Run {
    const char* label;
    int shards;
    int64_t budget;
  };
  const Run runs[] = {
      {"sharded", 1, 0},          {"sharded", 2, 0},
      {"sharded", 4, 0},          {"sharded", 8, 0},
      {"budgeted", 4, budget_mb},
  };
  double baseline_s = 0.0;  // the first (one-shard) run
  for (const Run& run : runs) {
    ShardedScanOptions options;
    options.num_shards = run.shards;
    options.num_threads = threads;
    options.memory_budget_mb = run.budget;
    Stopwatch watch;
    auto result = RunShardedScan(engine, *groups, options);
    const double seconds = watch.Seconds();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (baseline_s == 0.0) {
      baseline_s = seconds;
    }
    const bool exact = ResolutionsEqual(result->results, reference);
    const std::string label =
        run.budget > 0
            ? StrFormat("%s (%lld MiB)", run.label,
                        static_cast<long long>(run.budget))
            : std::string(run.label);
    table.AddRow({label, StrFormat("%d", run.shards),
                  StrFormat("%.3f", seconds),
                  StrFormat("%.2f",
                            baseline_s > 0 ? seconds / baseline_s : 0.0),
                  exact ? "yes" : "NO"});
    const std::string prefix =
        run.budget > 0 ? StrFormat("budget%lld_s%d_",
                                   static_cast<long long>(run.budget),
                                   run.shards)
                       : StrFormat("s%d_", run.shards);
    json.Add(prefix + "time_s", seconds);
    json.Add(prefix + "overhead", baseline_s > 0 ? seconds / baseline_s : 0.0);
    json.Add(prefix + "exact", static_cast<int64_t>(exact ? 1 : 0));
    if (!exact) {
      std::fprintf(stderr,
                   "error: %d-shard scan diverged from per-group "
                   "ResolveRefs\n",
                   run.shards);
      return 1;
    }
  }
  std::printf("%s", table.Render().c_str());
  json.Write();
  std::printf(
      "\nshards run sequentially through the same per-group unit; the "
      "overhead column (time over the one-shard scan) is the price of "
      "per-shard workspace pools and planning, and 'exact' confirms the "
      "merged output is byte-identical to per-group ResolveRefs.\n");
  return 0;
}
