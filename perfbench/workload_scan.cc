// scan: the bulk path. A planted world four times the Table-1 scale,
// Distinct::Create (supervised), then RunShardedScan with one shard and
// kThreads threads, repeated for the run's seconds. Accuracy is scored on
// the planted ambiguous names of the same world.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "core/scan_shard.h"
#include "dblp/schema.h"
#include "obs/memory.h"
#include "sim/parallel_kernel.h"
#include "sim/profile_arena.h"
#include "sim/profile_store.h"

namespace perfbench {

using namespace distinct;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetups = 3;
constexpr size_t kSampleGroups = 24;  // checked against ResolveRefs
constexpr double kMb = 1.0 / (1 << 20);

/// Raises `peak` to the tracker's current bytes of `component`.
void RaiseTo(std::atomic<int64_t>* peak, obs::MemoryTracker::Component component) {
  const int64_t seen = obs::MemoryTracker::Global().CurrentBytes(component);
  for (int64_t prev = peak->load(); seen > prev &&
       !peak->compare_exchange_weak(prev, seen);) {
  }
}

/// The scan as the traced run composes it from public steps: the same
/// per-group sequence ResolveShardGroups runs (shared memo + workspace
/// pool → arena → pair matrices → clustering), fanned out over one pool,
/// with a span around every step.
std::vector<BulkResolution> TracedScan(const Distinct& engine,
                                       const std::vector<NameGroup>& groups,
                                       SpanRecorder* spans, Result* result) {
  const DistinctConfig& config = engine.config();
  SubtreeCache memo(config.propagation.cache_bytes);
  WorkspacePool workspaces(engine.propagation_engine().link());
  const PairKernelOptions kernel = engine.kernel_options(true);
  const AgglomerativeOptions cluster = engine.cluster_options();
  std::vector<BulkResolution> out(groups.size());
  std::atomic<int64_t> cells{0}, nonzero{0}, merges{0};
  std::atomic<int64_t> arena_peak{0}, matrix_peak{0};

  const auto start = Clock::now();
  {
    ScopedSpan root(spans, "core.scan");
    ThreadPool pool(kThreads);
    ParallelFor(pool, static_cast<int64_t>(groups.size()), [&](int64_t g) {
      const NameGroup& group = groups[static_cast<size_t>(g)];
      BulkResolution& resolution = out[static_cast<size_t>(g)];
      resolution.name = group.name;
      resolution.num_refs = group.refs.size();
      std::pair<PairMatrix, PairMatrix> matrices{PairMatrix(0), PairMatrix(0)};
      {
        ScopedSpan span(spans, "core.group", root.id());
        const ProfileStore store = [&] {
          ScopedSpan s(spans, "prop.profile_build");
          return ProfileStore::Build(
              engine.propagation_engine(), engine.paths(), config.propagation,
              group.refs, &pool, ProfileStore::kMinParallelRefs, &memo,
              &workspaces);
        }();
        const ProfileArena arena = [&] {
          ScopedSpan s(spans, "sim.arena_build");
          return ProfileArena::FromStore(store);
        }();
        matrices = [&] {
          ScopedSpan s(spans, "sim.pair_fill");
          return ComputePairMatrices(store, arena, engine.model(), &pool,
                                     kernel);
        }();
        // Sampled while this group's arena and matrices are alive.
        RaiseTo(&arena_peak, obs::MemoryTracker::kProfileArena);
        RaiseTo(&matrix_peak, obs::MemoryTracker::kPairMatrix);
        ScopedSpan s(spans, "cluster.agglomerative");
        resolution.clustering =
            ClusterReferences(matrices.first, matrices.second, cluster);
      }
      // Bookkeeping outside the group's span: useful cells are the pairs
      // the fill left non-zero in either matrix.
      const size_t n = matrices.first.size();
      int64_t useful = 0;
      for (size_t i = 1; i < n; ++i) {
        for (size_t j = 0; j < i; ++j) {
          useful += (matrices.first.at(i, j) != 0.0 ||
                     matrices.second.at(i, j) != 0.0);
        }
      }
      cells += static_cast<int64_t>(n * (n - 1) / 2);
      nonzero += useful;
      merges += resolution.clustering.num_merges;
    });
  }
  const double wall = SecondsSince(start);

  int64_t refs = 0;
  for (const NameGroup& group : groups) refs += group.refs.size();
  const SubtreeCacheStats stats = memo.stats();
  const double build_s = spans->TotalSeconds("prop.profile_build");
  const double fill_s = spans->TotalSeconds("sim.pair_fill");
  result->Metric("prop.profile_build_s", build_s, "s");
  result->Metric("prop.refs_per_s", build_s > 0 ? refs / build_s : 0.0, "1/s");
  result->Metric("prop.memo_hit_share",
                 stats.hits + stats.misses > 0
                     ? static_cast<double>(stats.hits) /
                           static_cast<double>(stats.hits + stats.misses)
                     : 0.0,
                 "share");
  result->Metric("prop.memo_evictions", static_cast<double>(stats.evictions),
                 "count");
  result->Metric("sim.arena_build_s", spans->TotalSeconds("sim.arena_build"),
                 "s");
  result->Metric("sim.pair_fill_s", fill_s, "s");
  result->Metric("sim.pairs_per_s", fill_s > 0 ? cells.load() / fill_s : 0.0,
                 "1/s");
  result->Metric("sim.nonzero_cell_share",
                 cells.load() > 0 ? static_cast<double>(nonzero.load()) /
                                        static_cast<double>(cells.load())
                                  : 0.0,
                 "share");
  result->Metric("mem.profile_arena_peak_mb", arena_peak.load() * kMb,
                 "MB");
  result->Metric("mem.pair_matrix_peak_mb", matrix_peak.load() * kMb,
                 "MB");
  result->Metric("cluster.s", spans->TotalSeconds("cluster.agglomerative"),
                 "s");
  result->Metric("cluster.merges", static_cast<double>(merges.load()),
                 "count");
  const std::vector<double> group_ms = spans->DurationsMs("core.group");
  double busy_ms = 0.0, slowest_ms = 0.0;
  for (const double ms : group_ms) {
    busy_ms += ms;
    slowest_ms = std::max(slowest_ms, ms);
  }
  result->Metric("scan.group_p50_ms", Median(group_ms), "ms");
  result->Metric("scan.group_p99_ms", Quantile(group_ms, 0.99), "ms");
  result->Metric("scan.slowest_group_share", slowest_ms / 1e3 / wall, "share");
  result->Metric("scan.parallel_efficiency", busy_ms / 1e3 / (wall * kThreads),
                 "share");
  result->Metric(
      "mem.subtree_cache_peak_mb",
      obs::MemoryTracker::Global().PeakBytes(obs::MemoryTracker::kSubtreeCache) *
          kMb,
      "MB");
  result->Info("traced_scan_s", wall);
  return out;
}

}  // namespace

void RunScanWorkload(const Args& args, Result* result) {
  auto world = GenerateDblpDataset(ScaledWorld(args.seed));
  if (!world.ok()) {
    result->Fail("GenerateDblpDataset: " + world.status().ToString());
    return;
  }
  const DistinctConfig config = EngineConfig(/*supervised=*/true);

  // Set-up: Create, several times; the last engine serves the scans.
  std::vector<double> setup_cpu_s;
  std::unique_ptr<Distinct> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    const double cpu_start = ProcessCpuSeconds();
    auto created = Distinct::Create(world->db, DblpReferenceSpec(), config);
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    if (!created.ok()) {
      result->Fail("Distinct::Create: " + created.status().ToString());
      return;
    }
    engine = std::make_unique<Distinct>(*std::move(created));
  }
  auto groups = ScanNameGroups(*engine, ScanOptions{});
  if (!groups.ok()) {
    result->Fail("ScanNameGroups: " + groups.status().ToString());
    return;
  }
  int64_t refs = 0;
  for (const NameGroup& group : *groups) refs += group.refs.size();

  ShardedScanOptions options;
  options.num_shards = 1;
  options.num_threads = kThreads;
  std::vector<double> scan_s, scan_cpu_s;
  std::vector<BulkResolution> resolutions;
  std::string digest;
  const auto measure_start = Clock::now();
  // Two scans at least, so the median is over repeated work.
  while (scan_s.size() < 2 ||
         (!args.trace && SecondsSince(measure_start) < args.seconds)) {
    const auto start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    auto scan = RunShardedScan(*engine, *groups, options);
    scan_s.push_back(SecondsSince(start));
    scan_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    if (!scan.ok()) {
      result->Fail("RunShardedScan: " + scan.status().ToString());
      return;
    }
    bool completed = true;
    for (const ShardOutcome& shard : scan->shards) {
      completed &= shard.state == ShardState::kCompleted;
    }
    result->account().Record(completed && scan->results.size() == groups->size()
                                 ? Outcome::kOk
                                 : Outcome::kError);
    const std::string this_digest = ResolutionDigest(scan->results);
    if (!digest.empty() && this_digest != digest) {
      result->Fail("repeated scans disagree");
    }
    digest = this_digest;
    resolutions = std::move(scan->results);
    if (args.trace) break;
  }
  const double peak_rss = PeakRssMb();

  // Checks, untimed: a seeded sample of groups against ResolveRefs, and
  // accuracy on the planted names.
  Rng rng(args.seed ^ 0x5ca1ab1eull);
  for (size_t k = 0; k < kSampleGroups && !groups->empty(); ++k) {
    const size_t g = rng.Below(groups->size());
    auto single = engine->ResolveRefs((*groups)[g].refs);
    const bool same = single.ok() && g < resolutions.size() &&
                      SameClustering(*single, resolutions[g].clustering);
    result->account().Record(same ? Outcome::kOk : Outcome::kMismatch);
    if (!same) result->Fail("scan group '" + (*groups)[g].name +
                            "' differs from Distinct::ResolveRefs");
  }
  auto evaluations = EvaluateCases(*engine, world->cases);
  if (!evaluations.ok()) {
    result->Fail("EvaluateCases: " + evaluations.status().ToString());
    return;
  }
  int64_t zero_fp = 0;
  for (const CaseEvaluation& e : *evaluations) {
    zero_fp += e.scores.false_positives == 0;
  }
  const double f1 = Aggregate(*evaluations).f1;

  result->Info("refs", refs);
  result->Info("groups", static_cast<int64_t>(groups->size()));
  result->Info("names", static_cast<int64_t>(engine->name_groups().size()));
  result->Info("planted_names", static_cast<int64_t>(world->cases.size()));
  result->Info("scans", static_cast<int64_t>(scan_s.size()));
  result->Info("scan_wall_s_median", Median(scan_s));
  result->Info("refs_per_wall_s", refs / Median(scan_s));
  result->Info("shards", static_cast<int64_t>(1));
  result->Info("output_digest", digest);
  result->Info("flush_policy",
               std::string("in memory: the scan runs without a checkpoint "
                           "directory, so it writes no file"));
  result->Info("pairwise_f1", f1);
  result->Info("zero_fp_names", zero_fp);

  if (!args.trace) {
    const double scan_cpu_median = Median(scan_cpu_s);
    result->Metric("setup_s", Median(setup_cpu_s), "s");
    result->Metric("peak_rss_mb", peak_rss, "MB");
    result->Metric("ok_share", 1.0 - result->account().fail_share(), "share");
    result->Metric("refs_per_cpu_s", refs / scan_cpu_median, "1/s");
    result->Metric("op_cpu_p50_ms", scan_cpu_median * 1e3, "ms");
    result->Metric(
        "op_cpu_tail_ms",
        *std::max_element(scan_cpu_s.begin(), scan_cpu_s.end()) * 1e3, "ms");
    return;
  }

  // Traced run: the offline layers once more, then the composed scan,
  // whose output must be bit-identical to RunShardedScan's.
  SpanRecorder spans;
  MeasureOfflineLayers(world->db, config, &spans, result);
  const std::vector<BulkResolution> traced =
      TracedScan(*engine, *groups, &spans, result);
  const bool identical = ResolutionDigest(traced) == digest;
  result->account().Record(identical ? Outcome::kOk : Outcome::kMismatch);
  if (!identical) result->Fail("traced scan output differs from RunShardedScan");
  const double untraced_s = Median(scan_s);
  result->Metric("obs.trace_overhead_share",
                 (spans.TotalSeconds("core.scan") - untraced_s) / untraced_s,
                 "share");
  result->Metric("eval.pairwise_f1", f1, "share");
  result->Metric("eval.zero_fp_names", static_cast<double>(zero_fp), "count");
  WriteTrace(args, spans, *result);
}

}  // namespace perfbench
