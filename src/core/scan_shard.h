// Sharded, memory-bounded bulk scan with checkpoint/resume.
//
// Every bulk scan runs here; an unsharded scan is one shard. A scan that
// materialized every group, profile and pair matrix inside one process
// lifetime would lose the whole run to one OOM or crash, so this layer
// partitions the filtered groups into deterministic, size-balanced shards
// (balanced by estimated pair count, since cost and matrix memory are
// quadratic in group size, not by group count), runs each shard's groups
// through the per-group unit (core/group_resolve.h) under a per-shard
// memory budget (DistinctConfig::scan_memory_mb), and persists
// each finished shard as a checkpoint (core/checkpoint.h) so an
// interrupted run resumes by re-running only the unfinished shard. A shard
// that fails — bad group, matrix estimate over budget, checkpoint I/O
// error — is recorded with its error and skipped; the rest of the scan
// completes.
//
// Determinism: the plan is a pure function of (groups, num_shards); shard
// results merge back into the original group order; and the unit is
// bit-identical across thread counts and workspace reuse, so the merged
// output is byte-identical to Distinct::ResolveRefs per group at every
// shard count and every budget that completes.

#ifndef DISTINCT_CORE_SCAN_SHARD_H_
#define DISTINCT_CORE_SCAN_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/scan.h"
#include "obs/heartbeat.h"

namespace distinct {

/// Pairs a group of n references contributes to its shard's pair matrices
/// (and, squared-ish, to its memory): n·(n-1)/2.
int64_t EstimatedPairs(const NameGroup& group);

/// Pair matrices (resemblance + walk, strict lower triangle of doubles),
/// the fused fill's per-cell path masks (CandidateSet, one PathMask per
/// cell) and the assignment vector for a group of n references. The
/// scan's over-budget rejection and the serve admission controller both
/// price a query with this same estimate.
int64_t EstimatedGroupMatrixBytes(int64_t n);

/// A deterministic partition of group indices into shards.
struct ShardPlan {
  /// shards[s] = indices into the planned group vector, ascending. Shards
  /// may be empty when there are fewer groups than shards.
  std::vector<std::vector<size_t>> shards;
  /// Estimated pair count per shard (the balancing objective).
  std::vector<int64_t> estimated_pairs;

  int num_shards() const { return static_cast<int>(shards.size()); }
};

/// Size-balances `groups` into `num_shards` shards by estimated pair
/// count: longest-processing-time greedy — groups in input order (the scan
/// order is descending size, so big groups place first), each onto the
/// currently lightest shard, ties to the lowest shard id. Pure function of
/// its inputs; resume depends on replanning producing the identical plan.
ShardPlan PlanShards(const std::vector<NameGroup>& groups, int num_shards);

struct ShardedScanOptions {
  int num_shards = 1;
  /// Worker threads per shard (shards run one after another; within a
  /// shard, groups × tiles fan out over one pool).
  int num_threads = 1;
  /// Per-shard memory budget in MiB; 0 falls back to
  /// DistinctConfig::scan_memory_mb (and 0 there means unbounded). The
  /// budget bounds concurrent PropagationWorkspaces (capping effective
  /// threads) and fails shards whose largest group's pair matrices alone
  /// would not fit.
  int64_t memory_budget_mb = 0;
  /// Directory for per-shard checkpoints; empty disables checkpointing
  /// (and resume).
  std::string checkpoint_dir;
  /// Load complete checkpoints instead of re-resolving their shards. A
  /// checkpoint that is present-but-incomplete (killed mid-shard) re-runs;
  /// one that is complete but corrupt or from a different plan fails the
  /// scan with a clean error rather than silently recomputing.
  bool resume = false;
  /// Persist each shard's spans as trace-shard-<id>.json next to its
  /// checkpoint (requires checkpoint_dir and an enabled tracer). The
  /// fragments survive the process, so a resumed scan's merged trace
  /// (obs::CollectShardedTrace) still covers shards the previous run
  /// finished.
  bool write_trace_fragments = false;
  /// When non-null, the scan publishes totals up front and bumps the done
  /// counters as groups resolve — the feed for obs::HeartbeatReporter.
  /// Must outlive the scan. Groups of failed shards stay un-done: the
  /// terminal heartbeat shows exactly what was processed.
  obs::ProgressState* progress = nullptr;
};

enum class ShardState {
  kCompleted,  // resolved in this run
  kResumed,    // loaded from a checkpoint
  kFailed,     // recorded and skipped
};

const char* ShardStateName(ShardState state);

/// What happened to one shard.
struct ShardOutcome {
  int shard_id = 0;
  ShardState state = ShardState::kCompleted;
  int64_t num_groups = 0;
  int64_t num_refs = 0;
  int64_t estimated_pairs = 0;
  /// Worker threads the memory budget afforded this shard.
  int threads_used = 0;
  double seconds = 0.0;
  std::string error;  // kFailed only
};

struct ShardedScanResult {
  /// Successful resolutions merged back into the input group order;
  /// groups of failed shards are absent.
  std::vector<BulkResolution> results;
  /// Aggregated over successful shards; seconds covers the whole scan.
  BulkStats stats;
  /// One outcome per planned shard, in shard order.
  std::vector<ShardOutcome> shards;
};

/// Plans, runs (or resumes), checkpoints, and merges a sharded scan.
/// Errors of individual shards degrade gracefully into ShardOutcome
/// records; the returned status is non-OK only for scan-level problems
/// (invalid options, unusable resume state).
StatusOr<ShardedScanResult> RunShardedScan(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    const ShardedScanOptions& options);

}  // namespace distinct

#endif  // DISTINCT_CORE_SCAN_SHARD_H_
